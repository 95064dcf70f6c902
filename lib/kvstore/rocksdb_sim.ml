let psz = Hw.Defs.page_size

type config = {
  sst_pages : int;
  memtable_limit_bytes : int;
  l0_limit : int;
  level_ratio : int;
  nlevels : int;
}

let default_config =
  {
    sst_pages = 64;
    memtable_limit_bytes = 256 * 1024;
    l0_limit = 4;
    level_ratio = 10;
    nlevels = 4;
  }

type t = {
  env : Env.t;
  cfg : config;
  mutable mem : Memtable.t;
  mutable imm : Memtable.t option; (* being flushed *)
  levels : Sst.t array array;
      (* L0 newest-first; L1+ ascending by first_key and disjoint.  A
         level is replaced, never changed in place, so a get that
         suspends keeps a consistent view of it. *)
  mutable file_seq : int;
  mutable wal : Env.file;
  mutable wal_page : int;
  wal_buf : Bytes.t;
  mutable wal_pos : int;
  wlock : Sim.Sync.Mutex.t;
  scratch : Sst.scratch Sdevice.Bufpool.t; (* probe buffers *)
}

let wal_pages = 256

let create env ?(config = default_config) () =
  let wal = Env.create_file env ~name:"000001.log" ~size_pages:wal_pages in
  {
    env;
    cfg = config;
    mem = Memtable.create ();
    imm = None;
    levels = Array.make config.nlevels [||];
    file_seq = 1;
    wal;
    wal_page = 0;
    wal_buf = Bytes.make psz '\000';
    wal_pos = 0;
    wlock = Sim.Sync.Mutex.create ~name:"rocksdb-write" ();
    scratch = Sdevice.Bufpool.create Sst.scratch;
  }

(* records per SST at the configured target size: data pages hold ~3
   1 KiB records; leave two pages for index + filter *)
let records_per_sst t avg_record =
  let per_block = max 1 (psz / (avg_record + 6)) in
  max 8 ((t.cfg.sst_pages - 2) * per_block)

let next_sst_name t =
  t.file_seq <- t.file_seq + 1;
  Printf.sprintf "%06d.sst" t.file_seq

(* ---- write path ---- *)

let wal_append t k v =
  let rec_len = 6 + String.length k + String.length v in
  if t.wal_pos + rec_len > psz then begin
    (* flush the WAL page (group commit) *)
    Env.write t.wal ~off:(t.wal_page * psz) ~len:psz ~src:t.wal_buf;
    t.wal_page <- (t.wal_page + 1) mod wal_pages;
    Bytes.fill t.wal_buf 0 psz '\000';
    t.wal_pos <- 0
  end;
  Bytes.set_uint16_le t.wal_buf t.wal_pos (String.length k);
  Bytes.set_int32_le t.wal_buf (t.wal_pos + 2) (Int32.of_int (String.length v));
  Bytes.blit_string k 0 t.wal_buf (t.wal_pos + 6) (String.length k);
  Bytes.blit_string v 0 t.wal_buf (t.wal_pos + 6 + String.length k)
    (String.length v);
  t.wal_pos <- t.wal_pos + rec_len

(* Merge SST record lists, earlier lists taking precedence per key. *)
let merge_records lists =
  let seen = Hashtbl.create 4096 in
  let out = ref [] in
  List.iter
    (fun recs ->
      List.iter
        (fun (k, v) ->
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.replace seen k ();
            out := (k, v) :: !out
          end)
        recs)
    lists;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !out

let read_all sst =
  let acc = ref [] in
  Sst.iter_from sst ~start:""
    ~f:(fun k v ->
      acc := (k, v) :: !acc;
      true);
  List.rev !acc

let split_into_ssts t records =
  let avg =
    match records with
    | (k, v) :: _ -> String.length k + String.length v
    | [] -> 1024
  in
  let per = records_per_sst t avg in
  let rec chunks = function
    | [] -> []
    | l ->
        let rec take i acc rest =
          if i = per then (List.rev acc, rest)
          else
            match rest with
            | [] -> (List.rev acc, [])
            | x :: xs -> take (i + 1) (x :: acc) xs
        in
        let chunk, rest = take 0 [] l in
        chunk :: chunks rest
  in
  List.filter (fun c -> c <> []) (chunks records)

let build_ssts t records =
  List.map (fun chunk -> Sst.build t.env ~name:(next_sst_name t) chunk)
    (split_into_ssts t records)

let overlaps sst (lo, hi) = Sst.first_key sst <= hi && Sst.last_key sst >= lo

let sorted_by_first_key ssts =
  Array.stable_sort (fun a b -> String.compare (Sst.first_key a) (Sst.first_key b)) ssts;
  ssts

let level_max_ssts t level =
  if level = 0 then t.cfg.l0_limit
  else begin
    let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
    t.cfg.l0_limit * pow t.cfg.level_ratio level
  end

(* Compact [level] into [level+1]: merge overlapping files. *)
let rec compact t level =
  if level + 1 < t.cfg.nlevels && Array.length t.levels.(level) > level_max_ssts t level
  then begin
    let upper = Array.to_list t.levels.(level) in
    match upper with
    | [] -> ()
    | _ ->
        let lo =
          List.fold_left (fun acc s -> min acc (Sst.first_key s))
            (Sst.first_key (List.hd upper)) upper
        in
        let hi =
          List.fold_left (fun acc s -> max acc (Sst.last_key s))
            (Sst.last_key (List.hd upper)) upper
        in
        let lower = Array.to_list t.levels.(level + 1) in
        let touched, untouched = List.partition (fun s -> overlaps s (lo, hi)) lower in
        (* upper is newest-first for L0; for L1+ order within the level is
           disjoint so precedence is irrelevant *)
        let merged =
          merge_records (List.map read_all upper @ List.map read_all touched)
        in
        let new_ssts = build_ssts t merged in
        let sorted = sorted_by_first_key (Array.of_list (untouched @ new_ssts)) in
        t.levels.(level) <- [||];
        t.levels.(level + 1) <- sorted;
        List.iter Sst.delete upper;
        List.iter Sst.delete touched;
        compact t (level + 1)
  end

let flush_locked t =
  match t.imm with
  | None -> ()
  | Some imm ->
      let records = Memtable.to_sorted_list imm in
      (match records with
      | [] -> ()
      | _ ->
          let ssts = build_ssts t records in
          t.levels.(0) <- Array.append (Array.of_list ssts) t.levels.(0);
          compact t 0);
      t.imm <- None

let flush t =
  Sim.Sync.Mutex.with_lock t.wlock (fun () ->
      if t.imm = None && not (Memtable.is_empty t.mem) then begin
        t.imm <- Some t.mem;
        t.mem <- Memtable.create ()
      end;
      flush_locked t)

let put t k v =
  Sst.check_record k v;
  Kv_costs.(charge "kv_put" (Int64.add put_base memtable_insert));
  wal_append t k v;
  Memtable.put t.mem k v;
  if Memtable.mem_bytes t.mem > t.cfg.memtable_limit_bytes then flush t

(* ---- read path ---- *)

(* Index of the SST of a sorted, disjoint level whose key range holds
   [key], or -1. *)
let search_sorted_level ssts key =
  let n = Array.length ssts in
  if n = 0 || Sst.first_key ssts.(0) > key then -1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if Sst.first_key ssts.(mid) <= key then lo := mid else hi := mid - 1
    done;
    if key <= Sst.last_key ssts.(!lo) then !lo else -1
  end

let get_from_levels t ~scratch key =
  let rec try_levels l =
    if l >= t.cfg.nlevels then None
    else begin
      Kv_costs.(charge "kv_get" manifest_select);
      let level = t.levels.(l) in
      let i = search_sorted_level level key in
      if i < 0 then try_levels (l + 1)
      else
        match Sst.get level.(i) ~scratch key with
        | Some v -> Some v
        | None -> try_levels (l + 1)
    end
  in
  let l0 = t.levels.(0) in
  let rec try_l0 i =
    if i = Array.length l0 then try_levels 1
    else begin
      let sst = l0.(i) in
      Kv_costs.(charge "kv_get" manifest_select);
      if key >= Sst.first_key sst && key <= Sst.last_key sst then
        match Sst.get sst ~scratch key with
        | Some v -> Some v
        | None -> try_l0 (i + 1)
      else try_l0 (i + 1)
    end
  in
  try_l0 0

let get t key =
  Kv_costs.(charge "kv_get" (Int64.add get_base memtable_probe));
  match Memtable.get t.mem key with
  | Some v -> Some v
  | None -> (
      let imm_hit =
        match t.imm with
        | Some imm ->
            Kv_costs.(charge "kv_get" memtable_probe);
            Memtable.get imm key
        | None -> None
      in
      match imm_hit with
      | Some v -> Some v
      | None ->
          (* lend the probe a buffer of its own: SST reads suspend, so
             concurrent gets must not share one *)
          Sdevice.Bufpool.with_ t.scratch (fun scratch ->
              get_from_levels t ~scratch key))

(* Lazy concatenation over a sorted, disjoint level: open one SST cursor
   at a time, in key order, starting from the first that may hold
   [start]. *)
let level_cursor ssts ~start =
  let next = ref 0 in
  while !next < Array.length ssts && Sst.last_key ssts.(!next) < start do
    incr next
  done;
  let current = ref None in
  let rec pull () =
    match !current with
    | Some cur -> (
        match Kv_iter.next cur with
        | Some x -> Some x
        | None ->
            current := None;
            pull ())
    | None ->
        if !next = Array.length ssts then None
        else begin
          let sst = ssts.(!next) in
          incr next;
          current := Some (Kv_iter.of_sst sst ~start);
          pull ()
        end
  in
  Kv_iter.of_fun pull

let iterator t ~start =
  let mem_sources =
    Kv_iter.of_memtable t.mem ~start
    :: (match t.imm with Some imm -> [ Kv_iter.of_memtable imm ~start ] | None -> [])
  in
  let l0_sources =
    List.map (fun sst -> Kv_iter.of_sst sst ~start) (Array.to_list t.levels.(0))
  in
  let level_sources =
    List.filter_map
      (fun l ->
        match t.levels.(l) with
        | [||] -> None
        | ssts -> Some (level_cursor ssts ~start))
      (List.init (t.cfg.nlevels - 1) (fun i -> i + 1))
  in
  Kv_iter.merge (mem_sources @ l0_sources @ level_sources)

let scan t ~start ~n =
  let it = iterator t ~start in
  let result = Kv_iter.take it n in
  Kv_costs.(
    charge "kv_scan" (Int64.mul scan_next (Int64.of_int (max 1 (List.length result)))));
  result

let bulk_load t records =
  List.iter (fun (k, v) -> Sst.check_record k v) records;
  let ssts = build_ssts t records in
  let bottom = t.cfg.nlevels - 1 in
  t.levels.(bottom) <-
    sorted_by_first_key (Array.append t.levels.(bottom) (Array.of_list ssts))

let sst_count t = Array.fold_left (fun acc l -> acc + Array.length l) 0 t.levels
let level_sizes t = Array.to_list (Array.map Array.length t.levels)

let record_count t =
  Memtable.entries t.mem
  + (match t.imm with Some m -> Memtable.entries m | None -> 0)
  + Array.fold_left
      (fun acc l -> acc + Array.fold_left (fun a s -> a + Sst.nrecords s) 0 l)
      0 t.levels
