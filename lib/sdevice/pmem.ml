type t = {
  pname : string;
  block : Block_dev.t;
  mutable dreads : int;
}

let default_capacity = Int64.mul 192L 1048576L (* scaled: 192 "GB" -> 192 MiB *)

(* NVM media is ~3x slower than DRAM for loads (Izraelevitz et al. [31]);
   we derate the DRAM memcpy cost accordingly for the read direction. *)
let nvm_read_factor = 1.25
let nvm_write_factor = 1.15

let create ?(name = "pmem0") ?(capacity_bytes = default_capacity) () =
  {
    pname = name;
    block =
      Block_dev.create ~name:(name ^ "-blk") ~channels:16 ~setup_cycles:600L
        ~cycles_per_byte:0.3 ~capacity_bytes ();
    dreads = 0;
  }

let name t = t.pname
let store t = Block_dev.store t.block
let capacity_bytes t = Block_dev.capacity_bytes t.block
let block_dev t = t.block

let derate factor cycles = Int64.of_float (Int64.to_float cycles *. factor)

let dax_read t costs ~simd ~addr ~len ~dst ~dst_off =
  Pagestore.read_bytes (store t) ~addr ~len ~dst ~dst_off;
  t.dreads <- t.dreads + 1;
  derate nvm_read_factor (Hw.Costs.memcpy_bytes costs ~simd len)

let dax_write t costs ~simd ~addr ~src ~src_off ~len =
  Pagestore.write_bytes (store t) ~addr ~src ~src_off ~len;
  derate nvm_write_factor (Hw.Costs.memcpy_bytes costs ~simd len)

let dax_reads t = t.dreads
