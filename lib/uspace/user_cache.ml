let psz = Hw.Defs.page_size

module Pagekey = Mcache.Pagekey

type config = {
  capacity_pages : int;
  shards : int;
  lookup_cost : int64;
  insert_cost : int64;
}

let default_config ~capacity_pages =
  { capacity_pages; shards = 16; lookup_cost = 2800L; insert_cost = 3600L }

type shard = {
  slots : Bytes.t array; (* block data *)
  keys : int array; (* -1 = free *)
  index : (int, int) Hashtbl.t; (* key -> slot *)
  lru : Dstruct.Clock_lru.t;
  free : int Queue.t;
  lock : Sim.Sync.Mutex.t;
}

type t = {
  cfg : config;
  shard_arr : shard array;
  files : (int, Linux_sim.Readwrite.fd) Hashtbl.t;
  staging : Sdevice.Bufpool.pages; (* blocks read by in-flight misses *)
  mutable s_hits : int;
  mutable s_misses : int;
}

let create cfg =
  if cfg.capacity_pages < cfg.shards then invalid_arg "User_cache.create";
  let per = cfg.capacity_pages / cfg.shards in
  let mk i =
    let free = Queue.create () in
    for s = 0 to per - 1 do
      Queue.add s free
    done;
    {
      slots = Array.init per (fun _ -> Bytes.create psz);
      keys = Array.make per (-1);
      index = Hashtbl.create (2 * per);
      lru = Dstruct.Clock_lru.create ~nframes:per;
      free;
      lock = Sim.Sync.Mutex.create ~name:(Printf.sprintf "ucache[%d]" i) ();
    }
  in
  {
    cfg;
    shard_arr = Array.init cfg.shards mk;
    files = Hashtbl.create 16;
    staging = Sdevice.Bufpool.pages ();
    s_hits = 0;
    s_misses = 0;
  }

let register_file t ~file_id ~fd = Hashtbl.replace t.files file_id fd

let fd_of t file_id =
  match Hashtbl.find_opt t.files file_id with
  | Some fd -> fd
  | None -> invalid_arg (Printf.sprintf "User_cache: unregistered file %d" file_id)

let shard_of t key = t.shard_arr.(key mod Array.length t.shard_arr)

let charge c = Sim.Engine.delay ~cat:Sim.Engine.User ~label:"ucache" c

(* Returns the slot holding [key]'s block, filling it on a miss.  As in
   RocksDB's block cache, the entry is inserted only after the read
   completes; concurrent misses on the same block each read the device
   (wasted I/O, as in the real system) and the last insert wins. *)
let get_block t ~file_id ~page =
  let key = Pagekey.make ~file:file_id ~page in
  let sh = shard_of t key in
  charge (Int64.sub t.cfg.lookup_cost 600L);
  Sim.Sync.Mutex.lock ~cat:Sim.Engine.User sh.lock;
  charge 600L;
  match Hashtbl.find_opt sh.index key with
  | Some slot ->
      t.s_hits <- t.s_hits + 1;
      Dstruct.Clock_lru.touch sh.lru slot;
      Sim.Sync.Mutex.unlock sh.lock;
      (sh, slot)
  | None ->
      t.s_misses <- t.s_misses + 1;
      Sim.Sync.Mutex.unlock sh.lock;
      let fd = fd_of t file_id in
      Sdevice.Bufpool.with_pages t.staging 1 (fun block ->
          Linux_sim.Readwrite.pread fd ~off:(page * psz) ~len:psz ~dst:block;
          charge (Int64.sub t.cfg.insert_cost 600L);
          Sim.Sync.Mutex.lock ~cat:Sim.Engine.User sh.lock;
          charge 600L;
          let slot =
            match Hashtbl.find_opt sh.index key with
            | Some slot -> slot (* a concurrent miss installed it first *)
            | None ->
                let slot =
                  match Queue.take_opt sh.free with
                  | Some s -> s
                  | None -> (
                      match Dstruct.Clock_lru.evict_candidates sh.lru 1 with
                      | [ v ] ->
                          Hashtbl.remove sh.index sh.keys.(v);
                          sh.keys.(v) <- -1;
                          v
                      | _ -> failwith "User_cache: shard exhausted")
                in
                sh.keys.(slot) <- key;
                Hashtbl.replace sh.index key slot;
                Dstruct.Clock_lru.set_active sh.lru slot true;
                slot
          in
          Bytes.blit block 0 sh.slots.(slot) 0 psz;
          Dstruct.Clock_lru.touch sh.lru slot;
          Sim.Sync.Mutex.unlock sh.lock;
          (sh, slot))

let read t ~file_id ~off ~len ~dst =
  if off < 0 || len < 0 then invalid_arg "User_cache.read";
  if Bytes.length dst < len then invalid_arg "User_cache.read: dst too small";
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let page = abs / psz and in_page = abs mod psz in
    let chunk = min (len - !pos) (psz - in_page) in
    let sh, slot = get_block t ~file_id ~page in
    Bytes.blit sh.slots.(slot) in_page dst !pos chunk;
    pos := !pos + chunk
  done

let write ?len t ~file_id ~off ~src =
  let len = Option.value len ~default:(Bytes.length src) in
  if len > Bytes.length src then invalid_arg "User_cache.write: src too small";
  if off mod psz <> 0 || len mod psz <> 0 then
    invalid_arg "User_cache.write: requires page alignment (O_DIRECT)";
  (* update any cached copies *)
  let npages = len / psz in
  for i = 0 to npages - 1 do
    let page = (off / psz) + i in
    let key = Pagekey.make ~file:file_id ~page in
    let sh = shard_of t key in
    charge (Int64.sub t.cfg.lookup_cost 600L);
    Sim.Sync.Mutex.lock ~cat:Sim.Engine.User sh.lock;
    charge 600L;
    (match Hashtbl.find_opt sh.index key with
    | Some slot -> Bytes.blit src (i * psz) sh.slots.(slot) 0 psz
    | None -> ());
    Sim.Sync.Mutex.unlock sh.lock
  done;
  let fd = fd_of t file_id in
  Linux_sim.Readwrite.pwrite ~len fd ~off ~src

let invalidate_file t ~file_id =
  Array.iter
    (fun sh ->
      let victims =
        Hashtbl.fold
          (fun key slot acc ->
            if Pagekey.file_of key = file_id then (key, slot) :: acc else acc)
          sh.index []
      in
      List.iter
        (fun (key, slot) ->
          Hashtbl.remove sh.index key;
          sh.keys.(slot) <- -1;
          Dstruct.Clock_lru.set_active sh.lru slot false;
          Queue.add slot sh.free)
        victims)
    t.shard_arr

let hits t = t.s_hits
let misses t = t.s_misses

let resident t =
  Array.fold_left (fun acc sh -> acc + Hashtbl.length sh.index) 0 t.shard_arr
