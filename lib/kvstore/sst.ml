let psz = Hw.Defs.page_size

type t = {
  file : Env.file;
  staging : Sdevice.Bufpool.pages; (* the environment's *)
  sname : string;
  fkey : string;
  lkey : string;
  nrecs : int;
  ndata : int; (* data pages *)
  index_page0 : int;
  nindex : int;
  bloom_page0 : int;
  nbloom : int;
}

(* Records are [u16 klen | u32 vlen | key | value] and index entries
   [u16 klen | u32 block_no | key]; a zero [klen] ends a block or the
   index, which is why keys are non-empty. *)
let header = 6
let record_bytes k v = header + String.length k + String.length v

let check_record k v =
  if k = "" then invalid_arg "Sst: empty key";
  if record_bytes k v > psz then invalid_arg "Sst: record larger than a block"

let put_entry b pos k n =
  Bytes.set_uint16_le b pos (String.length k);
  Bytes.set_int32_le b (pos + 2) (Int32.of_int n);
  Bytes.blit_string k 0 b (pos + header) (String.length k)

(* ---- building ---- *)

(* Greedily fill 4 KiB blocks; a record never spans blocks.  Calls
   [f block pos k v] for each record in order ([pos] = 0 opens a block)
   and returns the number of blocks. *)
let pack records f =
  let block = ref (-1) and pos = ref psz in
  List.iter
    (fun (k, v) ->
      let need = record_bytes k v in
      if !pos + need > psz then begin
        incr block;
        pos := 0
      end;
      f !block !pos k v;
      pos := !pos + need)
    records;
  !block + 1

let pages_for len = max 1 ((len + psz - 1) / psz)

let build env ~name records =
  (match records with [] -> invalid_arg "Sst.build: empty" | _ -> ());
  List.iter (fun (k, v) -> check_record k v) records;
  let index_len = ref 0 in
  let ndata =
    pack records (fun _ pos k _ ->
        if pos = 0 then index_len := !index_len + header + String.length k)
  in
  let nindex = pages_for !index_len in
  let nrecs = List.length records in
  let bloom = Bloom.create ~expected_keys:nrecs in
  List.iter (fun (k, _) -> Bloom.add bloom k) records;
  let filter = Bloom.serialize bloom in
  let nbloom = pages_for (Bytes.length filter) in
  let total = ndata + nindex + nbloom in
  let file = Env.create_file env ~name ~size_pages:total in
  let staging = Env.staging env in
  (* Each area is staged in a pooled buffer that is zeroed over the area
     first: a reused buffer holds its last SST's bytes, and block tails,
     the index's end and the filter's tail must read as zero. *)
  let zeroed pages f =
    Sdevice.Bufpool.with_pages staging pages (fun b ->
        Bytes.fill b 0 (pages * psz) '\000';
        f b)
  in
  let write page0 pages b = Env.write file ~off:(page0 * psz) ~len:(pages * psz) ~src:b in
  let write_areas () =
    zeroed ndata (fun data ->
        zeroed nindex (fun index ->
            let ipos = ref 0 in
            ignore
              (pack records (fun block pos k v ->
                   if pos = 0 then begin
                     put_entry index !ipos k block;
                     ipos := !ipos + header + String.length k
                   end;
                   let at = (block * psz) + pos in
                   put_entry data at k (String.length v);
                   Bytes.blit_string v 0 data (at + header + String.length k)
                     (String.length v)));
            write 0 ndata data;
            write ndata nindex index));
    zeroed nbloom (fun b ->
        Bytes.blit filter 0 b 0 (Bytes.length filter);
        write (ndata + nindex) nbloom b);
    Env.sync file
  in
  (* a build that fails deletes its file *)
  (match write_areas () with
  | () -> ()
  | exception e ->
      Env.delete file;
      raise e);
  {
    file;
    staging;
    sname = name;
    fkey = fst (List.hd records);
    lkey = fst (List.nth records (nrecs - 1));
    nrecs;
    ndata;
    index_page0 = ndata;
    nindex;
    bloom_page0 = ndata + nindex;
    nbloom;
  }

let first_key t = t.fkey
let last_key t = t.lkey
let nrecords t = t.nrecs
let data_pages t = t.ndata
let total_pages t = t.ndata + t.nindex + t.nbloom

(* ---- reading, decoded in place ---- *)

type scratch = { mutable buf : Bytes.t; mutable offs : int array }

let scratch () = { buf = Bytes.empty; offs = [||] }

(* Reads [pages] pages from [page] into [s.buf], which is grown to fit;
   bytes past them are stale. *)
let read_pages t s ~page ~pages =
  let len = pages * psz in
  if Bytes.length s.buf < len then s.buf <- Bytes.create len;
  Env.read t.file ~off:(page * psz) ~len ~dst:s.buf;
  s.buf

(* Orders the [len] bytes at [off] in [b] against [key] exactly like
   [String.compare]: bytewise, then the shorter first. *)
let compare_at b off len key =
  let n = min len (String.length key) in
  let i = ref 0 in
  while !i < n && Bytes.unsafe_get b (off + !i) = String.unsafe_get key !i do
    incr i
  done;
  if !i < n then Char.compare (Bytes.unsafe_get b (off + !i)) (String.unsafe_get key !i)
  else Int.compare len (String.length key)

(* Reads the index and returns the block whose first key is the largest
   one <= [key], or [None] if [key] precedes every block.  One pass
   records the entry offsets in [s.offs]; the search then compares keys
   where they lie. *)
let find_block t s key =
  let b = read_pages t s ~page:t.index_page0 ~pages:t.nindex in
  if Array.length s.offs < t.ndata then s.offs <- Array.make t.ndata 0;
  let len = t.nindex * psz in
  let n = ref 0 and pos = ref 0 in
  while !n < t.ndata && !pos + header <= len && Bytes.get_uint16_le b !pos <> 0 do
    s.offs.(!n) <- !pos;
    pos := !pos + header + Bytes.get_uint16_le b !pos;
    incr n
  done;
  let cmp i =
    let p = s.offs.(i) in
    compare_at b (p + header) (Bytes.get_uint16_le b p) key
  in
  if !n = 0 || cmp 0 > 0 then None
  else begin
    let lo = ref 0 and hi = ref (!n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if cmp mid <= 0 then lo := mid else hi := mid - 1
    done;
    Some (Int32.to_int (Bytes.get_int32_le b (s.offs.(!lo) + 2)))
  end

(* Calls [f kpos klen vlen] on each record of data block [b] from byte
   [pos], where the key starts at [kpos] and the value follows it, until
   [f] returns [false]. *)
let rec iter_records b pos f =
  if pos + header <= psz then begin
    let klen = Bytes.get_uint16_le b pos in
    if klen <> 0 then begin
      let vlen = Int32.to_int (Bytes.get_int32_le b (pos + 2)) in
      if f (pos + header) klen vlen then iter_records b (pos + header + klen + vlen) f
    end
  end

let iter_block b f = iter_records b 0 f

let read_block t s block_no = read_pages t s ~page:block_no ~pages:1

let get t ~scratch:s key =
  if key < t.fkey || key > t.lkey then None
  else begin
    let filter = read_pages t s ~page:t.bloom_page0 ~pages:t.nbloom in
    Kv_costs.(charge "kv_get_bloom" bloom_probe);
    if not (Bloom.mem (Bloom.deserialize filter) key) then None
    else begin
      let block = find_block t s key in
      Kv_costs.(charge "kv_get_index" index_search);
      match block with
      | None -> None
      | Some block_no ->
          let b = read_block t s block_no in
          Kv_costs.(charge "kv_get_block" block_scan);
          let found = ref None in
          iter_block b (fun kpos klen vlen ->
              let c = compare_at b kpos klen key in
              if c = 0 then found := Some (Bytes.sub_string b (kpos + klen) vlen);
              c < 0);
          !found
    end
  end

let locate_start_block t ~scratch start =
  let block = find_block t scratch start in
  Kv_costs.(charge "kv_scan_index" index_search);
  Option.value block ~default:0

let iter_from t ~start ~f =
  (* the index is the largest read: the buffer never needs to grow *)
  Sdevice.Bufpool.with_pages t.staging t.nindex (fun buf ->
      let s = { buf; offs = [||] } in
      let stop = ref false in
      let block = ref (locate_start_block t ~scratch:s start) in
      while (not !stop) && !block < t.ndata do
        let b = read_block t s !block in
        Kv_costs.(charge "kv_scan_block" block_scan);
        iter_block b (fun kpos klen vlen ->
            compare_at b kpos klen start < 0
            || f (Bytes.sub_string b kpos klen) (Bytes.sub_string b (kpos + klen) vlen)
            || begin
                 stop := true;
                 false
               end);
        incr block
      done)

let read_block_records t ~scratch b =
  if b < 0 || b >= t.ndata then invalid_arg "Sst.read_block_records";
  let bytes = read_block t scratch b in
  Kv_costs.(charge "kv_scan_block" block_scan);
  let acc = ref [] in
  iter_block bytes (fun kpos klen vlen ->
      acc := (Bytes.sub_string bytes kpos klen, Bytes.sub_string bytes (kpos + klen) vlen) :: !acc;
      true);
  List.rev !acc

let delete t = Env.delete t.file
