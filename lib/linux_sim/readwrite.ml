let psz = Hw.Defs.page_size

type fd = {
  access : Sdevice.Access.t;
  translate : int -> int option;
  staging : Sdevice.Bufpool.pages;
  fsize_pages : int;
  mutable nreads : int;
  mutable nwrites : int;
}

let open_direct ~access ~translate ~size_pages ~staging =
  { access; translate; staging; fsize_pages = size_pages; nreads = 0; nwrites = 0 }

let size_pages fd = fd.fsize_pages

let check fd ~off ~len =
  if off < 0 || len < 0 || off + len > fd.fsize_pages * psz then
    invalid_arg "Readwrite: range outside file"

(* Device pages covering [off, off+len), as (first_page, count). *)
let span ~off ~len =
  let first = off / psz in
  let last = (off + len - 1) / psz in
  (first, last - first + 1)

let direct_rw fd ~off ~len ~is_write k =
  let first, count = span ~off ~len in
  let io ~dev0 ~run buf =
    if is_write then Sdevice.Access.write_pages fd.access ~page:dev0 ~count:run ~src:buf
    else Sdevice.Access.read_pages fd.access ~page:dev0 ~count:run ~dst:buf
  in
  (* O_DIRECT requires page-granular device transfers; find the device run
     and split on discontiguities.  The first run moves straight between
     the device and the staging buffer; a later one, after a device gap,
     goes through a second buffer of its own. *)
  Sdevice.Bufpool.with_pages fd.staging (max 1 count) (fun scratch ->
      let rec segments p remaining done_ =
        if remaining = 0 then ()
        else
          match fd.translate p with
          | None -> invalid_arg "Readwrite: beyond end of file"
          | Some dev0 ->
              (* extend while contiguous *)
              let run = ref 1 in
              let continue_ = ref true in
              while !continue_ && !run < remaining do
                match fd.translate (p + !run) with
                | Some dv when dv = dev0 + !run -> incr run
                | _ -> continue_ := false
              done;
              let run = !run in
              if done_ = 0 then io ~dev0 ~run scratch
              else
                Sdevice.Bufpool.with_pages fd.staging run (fun part ->
                    if is_write then Bytes.blit scratch (done_ * psz) part 0 (run * psz);
                    io ~dev0 ~run part;
                    if not is_write then
                      Bytes.blit part 0 scratch (done_ * psz) (run * psz));
              segments (p + run) (remaining - run) (done_ + run)
      in
      (* writes fill scratch before issuing *)
      if is_write then begin
        k scratch first;
        segments first count 0
      end
      else begin
        segments first count 0;
        k scratch first
      end)

let pread fd ~off ~len ~dst =
  check fd ~off ~len;
  if Bytes.length dst < len then invalid_arg "Readwrite.pread: dst too small";
  fd.nreads <- fd.nreads + 1;
  direct_rw fd ~off ~len ~is_write:false (fun scratch first ->
      Bytes.blit scratch (off - (first * psz)) dst 0 len)

let pwrite ?len fd ~off ~src =
  let len = Option.value len ~default:(Bytes.length src) in
  if len > Bytes.length src then invalid_arg "Readwrite.pwrite: src too small";
  check fd ~off ~len;
  fd.nwrites <- fd.nwrites + 1;
  if off mod psz <> 0 || len mod psz <> 0 then
    invalid_arg "Readwrite.pwrite: O_DIRECT requires page alignment";
  direct_rw fd ~off ~len ~is_write:true (fun scratch _first ->
      Bytes.blit src 0 scratch 0 len)

let reads fd = fd.nreads
let writes fd = fd.nwrites
