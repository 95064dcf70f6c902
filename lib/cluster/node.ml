(* One simulated Aquila node: an NVMe device, its own DRAM cache behind
   an Aquila context, and a page-granular write-ahead log mapped through
   the mmap path.  The volatile KV view (memtable) is rebuilt from the
   WAL on every (re)open, so a crash loses exactly the DRAM state — the
   contract lib/fault/check.ml verifies for the single-node stacks and,
   node by node, for the whole cluster.

   Durability unit: one WAL record per device page, written with
   Context.write + msync under the node's WAL lock, so the log is a
   dense prefix of the device and replay stops at the first blank page.
   A record for a key it has seen before supersedes the older one
   (replay is last-wins), which doubles as the divergent-tail
   truncation mechanism after a failover: the resync pass appends the
   authoritative record after the stale one. *)

let psz = Hw.Defs.page_size

type record = { op : int; value : string option (* None = tombstone *) }

type config = { cache_frames : int; wal_pages : int }

let default_config = { cache_frames = 64; wal_pages = 1024 }

type t = {
  id : int;
  cfg : config;
  nvme : Sdevice.Block_dev.t;
  mem : (string, record) Hashtbl.t;
  mutable ctx : Aquila.Context.t;
  mutable region : Aquila.Context.region option;
  mutable wal_len : int;
  mutable up : bool;
  mutable tainted : bool;
  mutable wal_locked : bool;
  wal_waiters : (unit -> unit) Queue.t;
}

let fresh_ctx cfg =
  Aquila.Context.create
    (Aquila.Context.default_config ~cache_frames:cfg.cache_frames)

let create ?nvme ~id cfg =
  let nvme =
    match nvme with
    | Some d -> d
    | None -> Sdevice.Nvme.create ~name:(Printf.sprintf "cluster-nvme-%d" id) ()
  in
  {
    id;
    cfg;
    nvme;
    mem = Hashtbl.create 64;
    ctx = fresh_ctx cfg;
    region = None;
    wal_len = 0;
    up = false;
    tainted = false;
    wal_locked = false;
    wal_waiters = Queue.create ();
  }

let id t = t.id
let is_up t = t.up
let tainted t = t.tainted
let set_tainted t b = t.tainted <- b
let device t = t.nvme
let degraded t = t.up && Mcache.Dram_cache.degraded (Aquila.Context.cache t.ctx)
let wal_len t = t.wal_len
let ensure_up t = if not t.up then raise Rpc.Drop

let region t =
  match t.region with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "node %d: stack not open" t.id)

(* ---- WAL record codec: one record per page ---- *)

let magic = 0x4151574c0001L (* "AQWL", versioned *)

exception Wal_full of int

let encode_record ~key ~(r : record) =
  let klen = String.length key in
  let vlen = match r.value with None -> 0 | Some v -> String.length v in
  if 32 + klen + vlen > psz then
    invalid_arg
      (Printf.sprintf "node: WAL record for %S exceeds one page" key);
  let b = Bytes.make psz '\000' in
  Bytes.set_int64_le b 0 magic;
  Bytes.set_int64_le b 8 (Int64.of_int r.op);
  Bytes.set_int64_le b 16 (Int64.of_int klen);
  Bytes.set_int64_le b 24
    (match r.value with None -> -1L | Some _ -> Int64.of_int vlen);
  Bytes.blit_string key 0 b 32 klen;
  (match r.value with
  | Some v -> Bytes.blit_string v 0 b (32 + klen) vlen
  | None -> ());
  b

let decode_record buf =
  if Bytes.get_int64_le buf 0 <> magic then None
  else
    let op = Int64.to_int (Bytes.get_int64_le buf 8) in
    let klen = Int64.to_int (Bytes.get_int64_le buf 16) in
    let vlen = Int64.to_int (Bytes.get_int64_le buf 24) in
    if klen < 0 || klen > psz - 32 then None
    else
      let key = Bytes.sub_string buf 32 klen in
      let value =
        if vlen < 0 then None
        else if 32 + klen + vlen > psz then None
        else Some (Bytes.sub_string buf (32 + klen) vlen)
      in
      Some (key, { op; value })

(* ---- fiber-side stack lifecycle ---- *)

(* Open (or re-open after a crash) the Aquila stack over the surviving
   device and replay the WAL into the memtable.  Fiber-only: the replay
   reads go through the mmap fault path and charge cycles. *)
let open_stack t =
  Aquila.Context.enter_thread t.ctx;
  let translate p = if p < t.cfg.wal_pages then Some p else None in
  let access = Sdevice.Access.spdk_nvme (Aquila.Context.costs t.ctx) t.nvme in
  let file =
    Aquila.Context.attach_file t.ctx
      ~name:(Printf.sprintf "wal-%d.dat" t.id)
      ~access ~translate ~size_pages:t.cfg.wal_pages
  in
  let region = Aquila.Context.mmap t.ctx file ~npages:t.cfg.wal_pages () in
  t.region <- Some region;
  let buf = Bytes.create psz in
  let slot = ref 0 and scanning = ref true in
  while !scanning && !slot < t.cfg.wal_pages do
    Aquila.Context.read t.ctx region ~off:(!slot * psz) ~len:psz ~dst:buf;
    match decode_record buf with
    | None -> scanning := false
    | Some (key, r) ->
        Hashtbl.replace t.mem key r;
        incr slot
  done;
  t.wal_len <- !slot;
  t.up <- true

let reopen t =
  t.ctx <- fresh_ctx t.cfg;
  t.region <- None;
  Hashtbl.reset t.mem;
  t.wal_locked <- false;
  Queue.clear t.wal_waiters;
  open_stack t

(* Power loss: volatile state only — the memtable dies and the DRAM
   cache drops un-synced frames; device bytes that completed survive.
   Called from the engine event hook, so it must not perform fiber
   effects (Dram_cache.crash is pure state mutation). *)
let crash t =
  t.up <- false;
  Hashtbl.reset t.mem;
  Mcache.Dram_cache.crash (Aquila.Context.cache t.ctx)

(* ---- WAL lock: serialize appends so the log stays a dense prefix ---- *)

let lock t =
  if t.wal_locked then Sim.Engine.suspend (fun r -> Queue.add r t.wal_waiters)
    (* ownership transfers on resume *)
  else t.wal_locked <- true

let unlock t =
  match Queue.take_opt t.wal_waiters with
  | Some r -> r ()
  | None -> t.wal_locked <- false

(* ---- data plane (fiber-only) ---- *)

let append t ~key ~(r : record) =
  lock t;
  Fun.protect
    ~finally:(fun () -> unlock t)
    (fun () ->
      ensure_up t;
      if t.wal_len >= t.cfg.wal_pages then raise (Wal_full t.id);
      let slot = t.wal_len in
      Aquila.Context.write t.ctx (region t) ~off:(slot * psz)
        ~src:(encode_record ~key ~r);
      Aquila.Context.msync t.ctx (region t);
      (* crashed mid-write: the bytes may have landed, but a down node
         must not expose (or acknowledge) them *)
      ensure_up t;
      t.wal_len <- slot + 1;
      Hashtbl.replace t.mem key r)

let find t key =
  ensure_up t;
  Hashtbl.find_opt t.mem key

(* ---- control plane (no up-check, no fiber effects) ---- *)

let peek t key = Hashtbl.find_opt t.mem key

let keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.mem [] |> List.sort String.compare

let entries t =
  Hashtbl.fold (fun k r acc -> (k, r) :: acc) t.mem []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
