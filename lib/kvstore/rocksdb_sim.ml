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

(* RocksDB 6.8's level0_stop_writes_trigger: writes stop while L0 holds
   this many files. *)
let l0_stop_writes = 36

(* An SST and the number of versions that list it; it is deleted once
   the last of them is released. *)
type file = { sst : Sst.t; mutable holders : int }

(* One view of the levels (RocksDB's Version, pinned through its
   SuperVersion): L0 newest-first; L1+ ascending by first_key and
   disjoint.  A version is never changed in place.  [refs] counts the
   store's pointer to it while it is current, plus every read pinning
   it. *)
type version = { levels : file array array; mutable refs : int }

type t = {
  env : Env.t;
  cfg : config;
  mutable mem : Memtable.t;
  mutable imm : Memtable.t option; (* full, waiting for or being flushed *)
  mutable current : version;
  mutable obsolete : Sst.t list; (* unreachable, for the compactor to delete *)
  mutable file_seq : int;
  mutable wal : Env.file;
  mutable wal_page : int;
  wal_buf : Bytes.t;
  mutable wal_pos : int;
  wlock : Sim.Sync.Mutex.t;
  scratch : Sst.scratch Sdevice.Bufpool.t; (* probe buffers *)
  (* background jobs: one flush and one compaction at a time, as RocksDB
     6.8's max_background_jobs = 2 splits them *)
  mutable daemons : Sim.Engine.ctx list;
  flush_wake : Sim.Sync.Waitq.t;
  compact_wake : Sim.Sync.Waitq.t;
  bg_done : Sim.Sync.Waitq.t; (* a stalled writer waits here *)
  mutable flush_pending : bool;
  mutable compact_pending : bool;
  mutable flush_error : exn option;
  mutable compact_error : exn option;
  mutable compactions : int;
}

let wal_pages = 256

let create env ?(config = default_config) () =
  let wal = Env.create_file env ~name:"000001.log" ~size_pages:wal_pages in
  {
    env;
    cfg = config;
    mem = Memtable.create ();
    imm = None;
    current = { levels = Array.make config.nlevels [||]; refs = 1 };
    obsolete = [];
    file_seq = 1;
    wal;
    wal_page = 0;
    wal_buf = Bytes.make psz '\000';
    wal_pos = 0;
    wlock = Sim.Sync.Mutex.create ~name:"rocksdb-write" ();
    scratch = Sdevice.Bufpool.create Sst.scratch;
    daemons = [];
    flush_wake = Sim.Sync.Waitq.create ();
    compact_wake = Sim.Sync.Waitq.create ();
    bg_done = Sim.Sync.Waitq.create ();
    flush_pending = false;
    compact_pending = false;
    flush_error = None;
    compact_error = None;
    compactions = 0;
  }

(* Ask the compactor for a pass; one asked for while a pass runs is kept
   for the next. *)
let request_compaction t =
  if not t.compact_pending then begin
    t.compact_pending <- true;
    ignore (Sim.Sync.Waitq.signal t.compact_wake)
  end

(* ---- versions ---- *)

let pin t =
  let v = t.current in
  v.refs <- v.refs + 1;
  v

let release t v =
  v.refs <- v.refs - 1;
  if v.refs = 0 then begin
    Array.iter
      (Array.iter (fun f ->
           f.holders <- f.holders - 1;
           if f.holders = 0 then t.obsolete <- f.sst :: t.obsolete))
      v.levels;
    if t.obsolete <> [] then request_compaction t
  end

let with_version t f =
  let v = pin t in
  Fun.protect ~finally:(fun () -> release t v) (fun () -> f v.levels)

let install t levels =
  let v = { levels; refs = 1 } in
  Array.iter (Array.iter (fun f -> f.holders <- f.holders + 1)) levels;
  let old = t.current in
  t.current <- v;
  release t old

let files ssts = List.map (fun sst -> { sst; holders = 0 }) ssts

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

(* A build that raises deletes the SSTs it already wrote. *)
let build_ssts t records =
  let built = ref [] in
  match
    List.iter
      (fun chunk -> built := Sst.build t.env ~name:(next_sst_name t) chunk :: !built)
      (split_into_ssts t records)
  with
  | () -> List.rev !built
  | exception e ->
      List.iter Sst.delete !built;
      raise e

let overlaps sst (lo, hi) = Sst.first_key sst <= hi && Sst.last_key sst >= lo

let sorted_by_first_key files =
  Array.stable_sort
    (fun a b -> String.compare (Sst.first_key a.sst) (Sst.first_key b.sst))
    files;
  files

let level_max_ssts t level =
  if level = 0 then t.cfg.l0_limit
  else begin
    let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
    t.cfg.l0_limit * pow t.cfg.level_ratio level
  end

(* Device failures a background job reports to the next writer that
   waits on it; anything else (a crash, a bug) unwinds the engine. *)
let io_failure = function
  | Fault.Io_error _ | Fault.Sigbus _ | Fault.Read_only _ -> true
  | _ -> false

let charge_records label records =
  Kv_costs.(charge label (Int64.mul scan_next (Int64.of_int (max 1 records))))

(* Flush [imm] to new L0 SSTs and drop it.  On a failure the SSTs built
   so far are deleted and [imm] stays for the retry. *)
let flush_imm t imm =
  let records = Memtable.to_sorted_list imm in
  charge_records "kv_flush" (List.length records);
  let ssts = files (build_ssts t records) in
  let levels = Array.copy t.current.levels in
  levels.(0) <- Array.append (Array.of_list ssts) levels.(0);
  install t levels;
  t.imm <- None;
  if Array.length levels.(0) > t.cfg.l0_limit then request_compaction t

(* [flush_pending] is set while an attempt is asked for or running. *)
let rec flusher t () =
  while not t.flush_pending do
    Sim.Sync.Waitq.wait t.flush_wake
  done;
  (match t.imm with
  | None -> ()
  | Some imm -> (
      try flush_imm t imm with e when io_failure e -> t.flush_error <- Some e));
  t.flush_pending <- false;
  ignore (Sim.Sync.Waitq.broadcast t.bg_done);
  flusher t ()

(* The first level over its size target whose files have a level to go
   to. *)
let level_to_compact t =
  let levels = t.current.levels in
  let rec pick l =
    if l + 1 >= t.cfg.nlevels then None
    else if Array.length levels.(l) > level_max_ssts t l then Some l
    else pick (l + 1)
  in
  pick 0

(* Compact all of [level] with the overlapping files of [level+1].  Only
   this fiber removes files, so the inputs stay in the current version
   throughout; the flusher may meanwhile add L0 files, which the install
   keeps. *)
let compact t level =
  let upper = Array.to_list t.current.levels.(level) in
  let key_range =
    List.fold_left
      (fun (lo, hi) f -> (min lo (Sst.first_key f.sst), max hi (Sst.last_key f.sst)))
      (Sst.first_key (List.hd upper).sst, Sst.last_key (List.hd upper).sst)
      upper
  in
  let touched =
    List.filter (fun f -> overlaps f.sst key_range)
      (Array.to_list t.current.levels.(level + 1))
  in
  (* upper is newest-first for L0; for L1+ order within the level is
     disjoint so precedence is irrelevant *)
  let inputs = upper @ touched in
  charge_records "kv_compact"
    (List.fold_left (fun n f -> n + Sst.nrecords f.sst) 0 inputs);
  let merged = merge_records (List.map (fun f -> read_all f.sst) inputs) in
  let outputs = files (build_ssts t merged) in
  let levels = Array.copy t.current.levels in
  let kept l =
    List.filter (fun f -> not (List.memq f inputs)) (Array.to_list levels.(l))
  in
  levels.(level) <- Array.of_list (kept level);
  levels.(level + 1) <- sorted_by_first_key (Array.of_list (kept (level + 1) @ outputs));
  install t levels;
  t.compactions <- t.compactions + 1

(* [compact_pending] asks for a pass, which deletes unreachable SSTs and
   then compacts the first level over its target; a pass that compacts
   asks for the next.  A failed compaction keeps its inputs, leaves its
   error for a writer stalled on L0, and is retried at the next
   request. *)
let rec compactor t () =
  while not t.compact_pending do
    Sim.Sync.Waitq.wait t.compact_wake
  done;
  t.compact_pending <- false;
  let dead = t.obsolete in
  t.obsolete <- [];
  List.iter Sst.delete (List.rev dead);
  (match level_to_compact t with
  | None -> ()
  | Some level ->
      (match compact t level with
      | () ->
          t.compact_error <- None;
          t.compact_pending <- true
      | exception e when io_failure e -> t.compact_error <- Some e);
      ignore (Sim.Sync.Waitq.broadcast t.bg_done));
  compactor t ()

let start_daemons t =
  match t.daemons with
  | _ :: _ -> ()
  | [] ->
      t.daemons <-
        [
          Sim.Engine.spawn_daemon_here ~name:"rocksdb-flush" (flusher t);
          Sim.Engine.spawn_daemon_here ~name:"rocksdb-compact" (compactor t);
        ]

(* The next four run under [wlock]. *)

let request_flush t =
  if not t.flush_pending then begin
    t.flush_pending <- true;
    ignore (Sim.Sync.Waitq.signal t.flush_wake)
  end

(* Move the memtable to [imm] and wake the flusher. *)
let switch t =
  start_daemons t;
  t.imm <- Some t.mem;
  t.mem <- Memtable.create ();
  request_flush t

(* Wait until [imm] is flushed.  The error of a failed attempt is raised
   to the first writer that waits on it; the next one retries. *)
let rec await_flush t =
  match (t.imm, t.flush_error) with
  | None, _ -> ()
  | Some _, Some e ->
      t.flush_error <- None;
      raise e
  | Some _, None ->
      request_flush t;
      Sim.Sync.Waitq.wait t.bg_done;
      await_flush t

(* Only while L0 is what the compactor works on next: a store that cannot
   compact L0 (one level, or a compaction trigger past the stop trigger)
   would otherwise stop writes for good. *)
let rec await_l0 t =
  if
    Array.length t.current.levels.(0) >= l0_stop_writes
    && level_to_compact t = Some 0
  then begin
    (match t.compact_error with
    | Some e ->
        t.compact_error <- None;
        raise e
    | None -> request_compaction t);
    Sim.Sync.Waitq.wait t.bg_done;
    await_l0 t
  end

let full t = Memtable.mem_bytes t.mem > t.cfg.memtable_limit_bytes

(* RocksDB's PreprocessWrite: a write that finds the memtable full
   switches it, stalling first while the previous one is still being
   flushed (max_write_buffer_number = 2) or L0 is at its stop trigger. *)
let make_room t =
  Sim.Sync.Mutex.with_lock t.wlock (fun () ->
      if full t then begin
        await_flush t;
        await_l0 t;
        switch t
      end)

let flush t =
  Sim.Sync.Mutex.with_lock t.wlock (fun () ->
      await_flush t;
      if not (Memtable.is_empty t.mem) then begin
        switch t;
        await_flush t
      end)

let put t k v =
  Sst.check_record k v;
  Kv_costs.(charge "kv_put" (Int64.add put_base memtable_insert));
  if full t then make_room t;
  wal_append t k v;
  Memtable.put t.mem k v

(* ---- read path ---- *)

(* Index of the SST of a sorted, disjoint level whose key range holds
   [key], or -1. *)
let search_sorted_level files key =
  let n = Array.length files in
  if n = 0 || Sst.first_key files.(0).sst > key then -1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if Sst.first_key files.(mid).sst <= key then lo := mid else hi := mid - 1
    done;
    if key <= Sst.last_key files.(!lo).sst then !lo else -1
  end

let get_from_levels t levels ~scratch key =
  let rec try_levels l =
    if l >= t.cfg.nlevels then None
    else begin
      Kv_costs.(charge "kv_get" manifest_select);
      let level = levels.(l) in
      let i = search_sorted_level level key in
      if i < 0 then try_levels (l + 1)
      else
        match Sst.get level.(i).sst ~scratch key with
        | Some v -> Some v
        | None -> try_levels (l + 1)
    end
  in
  let l0 = levels.(0) in
  let rec try_l0 i =
    if i = Array.length l0 then try_levels 1
    else begin
      let sst = l0.(i).sst in
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
          with_version t (fun levels ->
              Sdevice.Bufpool.with_ t.scratch (fun scratch ->
                  get_from_levels t levels ~scratch key)))

(* Lazy concatenation over a sorted, disjoint level: open one SST cursor
   at a time, in key order, starting from the first that may hold
   [start]. *)
let level_cursor files ~start =
  let next = ref 0 in
  while !next < Array.length files && Sst.last_key files.(!next).sst < start do
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
        if !next = Array.length files then None
        else begin
          let sst = files.(!next).sst in
          incr next;
          current := Some (Kv_iter.of_sst sst ~start);
          pull ()
        end
  in
  Kv_iter.of_fun pull

let merged_sources t levels ~start =
  let mem_sources =
    Kv_iter.of_memtable t.mem ~start
    :: (match t.imm with Some imm -> [ Kv_iter.of_memtable imm ~start ] | None -> [])
  in
  let l0_sources =
    List.map (fun f -> Kv_iter.of_sst f.sst ~start) (Array.to_list levels.(0))
  in
  let level_sources =
    List.filter_map
      (fun l ->
        match levels.(l) with
        | [||] -> None
        | files -> Some (level_cursor files ~start))
      (List.init (t.cfg.nlevels - 1) (fun i -> i + 1))
  in
  Kv_iter.merge (mem_sources @ l0_sources @ level_sources)

let with_iterator t ~start f =
  with_version t (fun levels -> f (merged_sources t levels ~start))

let scan t ~start ~n =
  let result = with_iterator t ~start (fun it -> Kv_iter.take it n) in
  Kv_costs.(
    charge "kv_scan" (Int64.mul scan_next (Int64.of_int (max 1 (List.length result)))));
  result

let bulk_load t records =
  List.iter (fun (k, v) -> Sst.check_record k v) records;
  let ssts = files (build_ssts t records) in
  let bottom = t.cfg.nlevels - 1 in
  let levels = Array.copy t.current.levels in
  levels.(bottom) <-
    sorted_by_first_key (Array.append levels.(bottom) (Array.of_list ssts));
  install t levels

let sst_count t = Array.fold_left (fun acc l -> acc + Array.length l) 0 t.current.levels
let level_sizes t = Array.to_list (Array.map Array.length t.current.levels)
let daemons t = t.daemons
let compactions t = t.compactions

let record_count t =
  Memtable.entries t.mem
  + (match t.imm with Some m -> Memtable.entries m | None -> 0)
  + Array.fold_left
      (fun acc l -> acc + Array.fold_left (fun a f -> a + Sst.nrecords f.sst) 0 l)
      0 t.current.levels
