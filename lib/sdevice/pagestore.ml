let psz = Hw.Defs.page_size

(* A directory of 256-page chunks (Blobstore's cluster size), each an
   array of page buffers.  A chunk no page of which was written is
   [no_chunk], and a page never written is [no_page]. *)
let chunk_bits = 8
let chunk_pages = 1 lsl chunk_bits
let no_page = Bytes.empty
let no_chunk : Bytes.t array = [||]

type t = { mutable dir : Bytes.t array array }

let create () = { dir = Array.make 4 no_chunk }

let find t p =
  let c = p lsr chunk_bits in
  if p < 0 || c >= Array.length t.dir then no_page
  else
    let chunk = Array.unsafe_get t.dir c in
    if chunk == no_chunk then no_page else chunk.(p land (chunk_pages - 1))

let get_page t p =
  let b = find t p in
  if b != no_page then b
  else begin
    if p < 0 then invalid_arg "Pagestore: negative page";
    let c = p lsr chunk_bits in
    let n = Array.length t.dir in
    if c >= n then begin
      let dir = Array.make (max (2 * n) (c + 1)) no_chunk in
      Array.blit t.dir 0 dir 0 n;
      t.dir <- dir
    end;
    if t.dir.(c) == no_chunk then t.dir.(c) <- Array.make chunk_pages no_page;
    let b = Bytes.make psz '\000' in
    t.dir.(c).(p land (chunk_pages - 1)) <- b;
    b
  end

let read_bytes t ~addr ~len ~dst ~dst_off =
  if len < 0 || dst_off < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Pagestore.read_bytes";
  let rec go addr remaining dpos =
    if remaining > 0 then begin
      let page = Int64.to_int (Int64.div addr (Int64.of_int psz)) in
      let off = Int64.to_int (Int64.rem addr (Int64.of_int psz)) in
      let chunk = min remaining (psz - off) in
      let b = find t page in
      if b == no_page then Bytes.fill dst dpos chunk '\000'
      else Bytes.blit b off dst dpos chunk;
      go (Int64.add addr (Int64.of_int chunk)) (remaining - chunk) (dpos + chunk)
    end
  in
  go addr len dst_off

let write_bytes t ~addr ~src ~src_off ~len =
  if len < 0 || src_off < 0 || src_off + len > Bytes.length src then
    invalid_arg "Pagestore.write_bytes";
  let rec go addr remaining spos =
    if remaining > 0 then begin
      let page = Int64.to_int (Int64.div addr (Int64.of_int psz)) in
      let off = Int64.to_int (Int64.rem addr (Int64.of_int psz)) in
      let chunk = min remaining (psz - off) in
      let b = get_page t page in
      Bytes.blit src spos b off chunk;
      go (Int64.add addr (Int64.of_int chunk)) (remaining - chunk) (spos + chunk)
    end
  in
  go addr len src_off

let read_page t ~page ~dst =
  if Bytes.length dst < psz then invalid_arg "Pagestore.read_page: dst too small";
  let b = find t page in
  if b == no_page then Bytes.fill dst 0 psz '\000' else Bytes.blit b 0 dst 0 psz

let write_page t ~page ~src =
  if Bytes.length src < psz then invalid_arg "Pagestore.write_page: src too small";
  let b = get_page t page in
  Bytes.blit src 0 b 0 psz

let allocated_pages t =
  Array.fold_left
    (Array.fold_left (fun n b -> if b == no_page then n else n + 1))
    0 t.dir
