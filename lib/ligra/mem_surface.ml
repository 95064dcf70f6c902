let psz = Hw.Defs.page_size

type backend =
  | Dram
  | Mapped of (page:int -> write:bool -> buf:Sim.Costbuf.t -> unit)

type t = {
  backend : backend;
  mutable next_byte : int;
  limit_bytes : int;
  eb : int;
}

let dram () = { backend = Dram; next_byte = 0; limit_bytes = max_int; eb = 8 }

let mapped ?(elem_bytes = 8) ~pages touch =
  { backend = Mapped touch; next_byte = 0; limit_bytes = pages * psz; eb = elem_bytes }

type 'a arr = {
  surf : t;
  page0 : int;  (* first region page; -1 for DRAM *)
  alen : int;
  mutable data : 'a array;
}

let alloc t ~len ~init =
  let bytes = len * t.eb in
  let page0 =
    match t.backend with
    | Dram -> -1
    | Mapped _ ->
        (* page-align each array, as malloc-over-mmap does for large blocks *)
        let start = (t.next_byte + psz - 1) / psz * psz in
        if start + bytes > t.limit_bytes then
          failwith "Mem_surface: mmio heap exhausted";
        t.next_byte <- start + bytes;
        start / psz
  in
  { surf = t; page0; alen = len; data = Array.init len init }

let page_of a i = a.page0 + (i * a.surf.eb / psz)

let touch a ~buf i ~write =
  match a.surf.backend with
  | Dram -> ()
  | Mapped touch -> touch ~page:(page_of a i) ~write ~buf

let get a ~buf i =
  touch a ~buf i ~write:false;
  a.data.(i)

let set a ~buf i v =
  touch a ~buf i ~write:true;
  a.data.(i) <- v

let len a = a.alen
let free a = a.data <- [||]
