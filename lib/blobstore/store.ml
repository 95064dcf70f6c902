type blob = {
  id : int;
  bname : string option;
  bcl_pages : int; (* pages per cluster, copied from the store *)
  home : int; (* allocation shard clusters are preferred from *)
  mutable clusters : int array; (* cluster indices, in blob order *)
  mutable pages : int;
}

(* Free clusters are partitioned into [shards] lists by a static map
   (cluster mod shards): a shard-owned driver allocates and frees on its
   own list without touching peers, so the allocator stops being shared
   state in partitioned runs.  Frees always return a cluster to its
   static owner — whichever shard releases it — so the lists are a pure
   function of the alloc/free history, independent of which domain ran
   the caller.  [shards = 1] is byte-identical to the old single list. *)
type t = {
  cl_pages : int;
  total_clusters : int;
  free : int list array; (* free cluster indices, per allocation shard *)
  nfree : int array;
  blobs : (int, blob) Hashtbl.t;
  mutable next_id : int;
}

let create ~capacity_pages ?(cluster_pages = 256) ?(shards = 1) () =
  if capacity_pages <= 0 || cluster_pages <= 0 then
    invalid_arg "Blobstore.create";
  if shards < 1 then invalid_arg "Blobstore.create: shards must be >= 1";
  let total = capacity_pages / cluster_pages in
  let free = Array.make shards [] in
  (* build each list in descending cluster order so every shard's head
     comes out ascending *)
  for c = total - 1 downto 0 do
    free.(c mod shards) <- c :: free.(c mod shards)
  done;
  let nfree = Array.make shards 0 in
  for c = 0 to total - 1 do
    nfree.(c mod shards) <- nfree.(c mod shards) + 1
  done;
  {
    cl_pages = cluster_pages;
    total_clusters = total;
    free;
    nfree;
    blobs = Hashtbl.create 64;
    next_id = 1;
  }

let cluster_pages t = t.cl_pages
let capacity_pages t = t.total_clusters * t.cl_pages
let shards t = Array.length t.free
let total_free t = Array.fold_left ( + ) 0 t.nfree
let free_pages t = total_free t * t.cl_pages
let shard_free_pages t s = t.nfree.(s) * t.cl_pages

let clusters_for t pages = (pages + t.cl_pages - 1) / t.cl_pages

let owner t c = c mod Array.length t.free

let free_cluster t c =
  let s = owner t c in
  t.free.(s) <- c :: t.free.(s);
  t.nfree.(s) <- t.nfree.(s) + 1

(* Take [n] clusters preferring shard [home]; when its list runs dry,
   steal from the other shards in ascending (home + k) mod shards order —
   a deterministic fallback, so allocation stays a pure function of the
   store history even when a shard overflows its partition. *)
let take_clusters t ~home n =
  if n > total_free t then failwith "Blobstore: out of space";
  let ns = Array.length t.free in
  let taken = ref [] and remaining = ref n in
  let k = ref 0 in
  while !remaining > 0 && !k < ns do
    let s = (home + !k) mod ns in
    let rec go acc r free =
      if r = 0 then (acc, free, 0)
      else
        match free with
        | [] -> (acc, [], r)
        | c :: rest -> go (c :: acc) (r - 1) rest
    in
    let got, rest, left = go [] !remaining t.free.(s) in
    t.free.(s) <- rest;
    t.nfree.(s) <- t.nfree.(s) - (!remaining - left);
    (* [got] is this segment reversed; keep the whole accumulator
       reversed and flip once at the end *)
    taken := got @ !taken;
    remaining := left;
    incr k
  done;
  if !remaining > 0 then failwith "Blobstore: out of space";
  Array.of_list (List.rev !taken)

let create_blob t ?name ?(shard = 0) ~pages () =
  let ns = Array.length t.free in
  if shard < 0 || shard >= ns then
    invalid_arg
      (Printf.sprintf "Blobstore.create_blob: shard %d outside [0, %d)" shard ns);
  let ncl = clusters_for t pages in
  let clusters = take_clusters t ~home:shard ncl in
  let b =
    {
      id = t.next_id;
      bname = name;
      bcl_pages = t.cl_pages;
      home = shard;
      clusters;
      pages;
    }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.blobs b.id b;
  b

let open_blob t id =
  match Hashtbl.find_opt t.blobs id with
  | Some b -> b
  | None -> raise Not_found

let blob_id b = b.id
let blob_name b = b.bname
let blob_pages b = b.pages
let blob_shard b = b.home

let delete t b =
  Array.iter (fun c -> free_cluster t c) b.clusters;
  b.clusters <- [||];
  b.pages <- 0;
  Hashtbl.remove t.blobs b.id

let device_page b p =
  if p < 0 || p >= b.pages then invalid_arg "Blobstore.device_page: out of range";
  let cl = p / b.bcl_pages and off = p mod b.bcl_pages in
  (b.clusters.(cl) * b.bcl_pages) + off

let translate b p = if p < b.pages then Some (device_page b p) else None

let contiguous_run b p =
  if p < 0 || p >= b.pages then invalid_arg "Blobstore.contiguous_run: out of range";
  let rec go q run =
    if q >= b.pages then run
    else if q mod b.bcl_pages <> 0 then go (q + 1) (run + 1)
    else
      (* crossing into cluster q/bcl_pages: contiguous only if adjacent *)
      let prev_cl = b.clusters.((q - 1) / b.bcl_pages) in
      let this_cl = b.clusters.(q / b.bcl_pages) in
      if this_cl = prev_cl + 1 then go (q + 1) (run + 1) else run
  in
  go (p + 1) 1

let blob_count t = Hashtbl.length t.blobs
