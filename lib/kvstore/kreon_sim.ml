let psz = Hw.Defs.page_size

type config = { l0_limit_entries : int; level_ratio : int; nlevels : int }

let default_config = { l0_limit_entries = 2048; level_ratio = 8; nlevels = 3 }

type level = {
  buf0 : int; (* base page of ping buffer *)
  buf1 : int; (* base page of pong buffer *)
  mutable active : int; (* 0 or 1 *)
  mutable index : Btree.info option;
  capacity : int; (* max entries *)
}

type t = {
  ctx : Aquila.Context.t;
  region : Aquila.Context.region;
  rw : Btree.rw;
  cfg : config;
  l0 : Memtable.t;
  l0_offs : (string, int) Hashtbl.t;
  levels : level array;
  log_page0 : int;
  log_capacity_bytes : int;
  mutable log_tail : int; (* bytes appended since creation *)
  mutable log_spilled : int; (* log prefix already reflected in the levels *)
  lock : Sim.Sync.Mutex.t;
}

let superblock_magic = 0x4b52454fl (* "KREO" *)

let level_spare lv = if lv.active = 0 then lv.buf1 else lv.buf0

let create ~ctx ~access ~store ~expected_records ~value_bytes ?(config = default_config) () =
  let caps =
    Array.init config.nlevels (fun i ->
        let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
        let c = config.l0_limit_entries * pow config.level_ratio (i + 1) in
        if i = config.nlevels - 1 then max c (2 * expected_records) else c)
  in
  let log_pages =
    ((expected_records * (value_bytes + Btree.max_key_bytes + 8) * 2) + psz - 1) / psz
  in
  let total =
    1 (* superblock *) + log_pages
    + Array.fold_left (fun acc c -> acc + (2 * Btree.pages_needed c)) 0 caps
  in
  let blob = Blobstore.Store.create_blob store ~name:"kreon.data" ~pages:total () in
  let file =
    Aquila.Context.attach_file ctx ~name:"kreon.data" ~access
      ~translate:(Blobstore.Store.translate blob) ~size_pages:total
  in
  let region = Aquila.Context.mmap ctx file ~npages:total () in
  let rw =
    {
      Btree.read = (fun ~off ~len ~dst -> Aquila.Context.read ctx region ~off ~len ~dst);
      write = (fun ~off ~src -> Aquila.Context.write ctx region ~off ~src);
    }
  in
  let next = ref (1 + log_pages) in
  let levels =
    Array.map
      (fun cap ->
        let p = Btree.pages_needed cap in
        let b0 = !next in
        next := !next + p;
        let b1 = !next in
        next := !next + p;
        { buf0 = b0; buf1 = b1; active = 0; index = None; capacity = cap })
      caps
  in
  {
    ctx;
    region;
    rw;
    cfg = config;
    l0 = Memtable.create ();
    l0_offs = Hashtbl.create 4096;
    levels;
    log_page0 = 1;
    log_capacity_bytes = log_pages * psz;
    log_tail = 0;
    log_spilled = 0;
    lock = Sim.Sync.Mutex.create ~name:"kreon" ();
  }

(* ---- value log ---- *)

let log_append t k v =
  let rec_len = 6 + String.length k + String.length v in
  if t.log_tail + rec_len > t.log_capacity_bytes then
    failwith "Kreon: value log full (no GC in this model)";
  let b = Bytes.create rec_len in
  Bytes.set_uint16_le b 0 (String.length k);
  Bytes.set_int32_le b 2 (Int32.of_int (String.length v));
  Bytes.blit_string k 0 b 6 (String.length k);
  Bytes.blit_string v 0 b (6 + String.length k) (String.length v);
  let off = t.log_tail in
  Aquila.Context.write t.ctx t.region ~off:((t.log_page0 * psz) + off) ~src:b;
  t.log_tail <- t.log_tail + rec_len;
  off

let log_read t off =
  let hdr = Bytes.create 6 in
  let base = (t.log_page0 * psz) + off in
  Aquila.Context.read t.ctx t.region ~off:base ~len:6 ~dst:hdr;
  let klen = Bytes.get_uint16_le hdr 0 in
  let vlen = Int32.to_int (Bytes.get_int32_le hdr 2) in
  let kv = Bytes.create (klen + vlen) in
  Aquila.Context.read t.ctx t.region ~off:(base + 6) ~len:(klen + vlen) ~dst:kv;
  (Bytes.sub_string kv 0 klen, Bytes.sub_string kv klen vlen)

(* ---- superblock / durability ---- *)

let write_superblock t =
  let b = Bytes.make psz '\000' in
  Bytes.set_int32_le b 0 superblock_magic;
  Bytes.set_int64_le b 4 (Int64.of_int t.log_tail);
  Bytes.set_int64_le b 12 (Int64.of_int t.log_spilled);
  Bytes.set_uint8 b 20 (Array.length t.levels);
  Array.iteri
    (fun i lv ->
      let pos = 24 + (i * (Btree.info_bytes + 8)) in
      Bytes.set_uint8 b pos lv.active;
      match lv.index with
      | None -> Bytes.set_uint8 b (pos + 1) 0
      | Some info ->
          Bytes.set_uint8 b (pos + 1) 1;
          Bytes.blit (Btree.serialize_info info) 0 b (pos + 8) Btree.info_bytes)
    t.levels;
  Aquila.Context.write t.ctx t.region ~off:0 ~src:b

let msync t =
  (* Commit protocol, in crash-safe order: first make the data durable —
     log tail, freshly built level pages — and only then write and flush
     the superblock that points at it.  Flushing both in one msync would
     write the superblock first (ascending offset), so a power cut inside
     that msync could leave a superblock referencing log pages that never
     hit the device — a dense 'aquila_cli faultcheck --mode kreon' sweep
     catches exactly that.  The second msync flushes a single page (the
     dirty set is otherwise empty). *)
  Aquila.Context.msync t.ctx t.region;
  write_superblock t;
  Aquila.Context.msync t.ctx t.region

(* Rebuild the in-memory state from the device after a crash: levels come
   from the superblock; log records appended after the last spill but
   before the last msync are replayed into L0. *)
let recover t =
  let b = Bytes.create psz in
  Aquila.Context.read t.ctx t.region ~off:0 ~len:psz ~dst:b;
  Memtable.clear t.l0;
  Hashtbl.reset t.l0_offs;
  if Bytes.get_int32_le b 0 <> superblock_magic then begin
    (* never synced: empty store *)
    t.log_tail <- 0;
    t.log_spilled <- 0;
    Array.iter (fun lv -> lv.index <- None) t.levels
  end
  else begin
    t.log_tail <- Int64.to_int (Bytes.get_int64_le b 4);
    t.log_spilled <- Int64.to_int (Bytes.get_int64_le b 12);
    let n = Bytes.get_uint8 b 20 in
    for i = 0 to min n (Array.length t.levels) - 1 do
      let pos = 24 + (i * (Btree.info_bytes + 8)) in
      t.levels.(i).active <- Bytes.get_uint8 b pos;
      t.levels.(i).index <-
        (if Bytes.get_uint8 b (pos + 1) = 1 then
           Some (Btree.deserialize_info b ~pos:(pos + 8))
         else None)
    done;
    (* replay the committed log suffix into L0 *)
    let off = ref t.log_spilled in
    while !off < t.log_tail do
      let k, v = log_read t !off in
      Memtable.put t.l0 k v;
      Hashtbl.replace t.l0_offs k !off;
      off := !off + 6 + String.length k + String.length v
    done
  end

(* ---- spills ---- *)

let level_entries_list t lv =
  match lv.index with
  | None -> []
  | Some info ->
      let acc = ref [] in
      Btree.iter_from t.rw info ~start:"" ~f:(fun k p ->
          acc := (k, p) :: !acc;
          true);
      List.rev !acc

let rec spill_into t src_entries lvl =
  if lvl >= t.cfg.nlevels then failwith "Kreon: bottom level overflow"
  else begin
    let lv = t.levels.(lvl) in
    let existing = level_entries_list t lv in
    (* src wins on duplicates *)
    let seen = Hashtbl.create 1024 in
    let keep = ref [] in
    let add (k, o) =
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        keep := (k, o) :: !keep
      end
    in
    List.iter add src_entries;
    List.iter add existing;
    let merged =
      Array.of_list (List.sort (fun (a, _) (b, _) -> compare a b) !keep)
    in
    let n = Array.length merged in
    if n > lv.capacity then begin
      spill_into t (Array.to_list merged) (lvl + 1);
      lv.index <- None
    end
    else begin
      let info = Btree.build t.rw ~base_page:(level_spare lv) merged in
      lv.active <- 1 - lv.active;
      lv.index <- Some info;
      (* Kreon's custom msync commits the new level state *)
      msync t
    end
  end

let spill t =
  Sim.Sync.Mutex.lock t.lock;
  if not (Memtable.is_empty t.l0) then begin
    let entries =
      List.map
        (fun (k, _) ->
          match Hashtbl.find_opt t.l0_offs k with
          | Some off -> (k, off)
          | None -> assert false)
        (Memtable.to_sorted_list t.l0)
    in
    spill_into t entries 0;
    Memtable.clear t.l0;
    Hashtbl.reset t.l0_offs;
    t.log_spilled <- t.log_tail;
    write_superblock t
  end;
  Sim.Sync.Mutex.unlock t.lock

(* ---- public ops ---- *)

let put t k v =
  if String.length k > Btree.max_key_bytes then invalid_arg "Kreon: key too long";
  Kv_costs.(charge "kv_put" (Int64.add put_base (Int64.add log_append memtable_insert)));
  let off = log_append t k v in
  Memtable.put t.l0 k v;
  Hashtbl.replace t.l0_offs k off;
  if Memtable.entries t.l0 > t.cfg.l0_limit_entries then spill t

let get t key =
  Kv_costs.(charge "kv_get" (Int64.add get_base memtable_probe));
  match Memtable.get t.l0 key with
  | Some v -> Some v
  | None ->
      let rec go lvl =
        if lvl >= t.cfg.nlevels then None
        else
          match t.levels.(lvl).index with
          | None -> go (lvl + 1)
          | Some info -> (
              match Btree.find t.rw info key with
              | Some off ->
                  let k, v = log_read t off in
                  Kv_costs.(charge "kv_get_log" block_scan);
                  if k = key then Some v else None
              | None -> go (lvl + 1))
      in
      go 0

let scan t ~start ~n =
  let mem_part = Memtable.range t.l0 ~start ~n in
  let level_parts =
    List.init t.cfg.nlevels (fun lvl ->
        match t.levels.(lvl).index with
        | None -> []
        | Some info ->
            let acc = ref [] and c = ref 0 in
            Btree.iter_from t.rw info ~start ~f:(fun k off ->
                let _, v = log_read t off in
                acc := (k, v) :: !acc;
                incr c;
                !c < n);
            List.rev !acc)
  in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  List.iter
    (fun lst ->
      List.iter
        (fun (k, v) ->
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.replace seen k ();
            out := (k, v) :: !out
          end)
        lst)
    (mem_part :: level_parts);
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) !out in
  let rec take i = function
    | [] -> []
    | x :: rest -> if i = 0 then [] else x :: take (i - 1) rest
  in
  let result = take n sorted in
  Kv_costs.(charge "kv_scan" (Int64.mul scan_next (Int64.of_int (max 1 (List.length result)))));
  result

let level_entries t =
  Array.to_list
    (Array.map
       (fun lv -> match lv.index with None -> 0 | Some i -> i.Btree.count)
       t.levels)

let log_bytes t = t.log_tail
