let page_size = 4096
let page_shift = 12

let page_of_addr a = Int64.to_int (Int64.shift_right_logical a page_shift)
let addr_of_page p = Int64.shift_left (Int64.of_int p) page_shift

let pages_of_bytes n =
  let p = Int64.div (Int64.add n (Int64.of_int (page_size - 1))) (Int64.of_int page_size) in
  Int64.to_int p

let cycles_per_ns = 2.4
let ns x = Int64.of_float (x *. cycles_per_ns)
let us x = ns (x *. 1000.)
