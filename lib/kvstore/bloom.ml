(* A filter is its serialized form, [u32 nbits | u32 k | bit vector]:
   [create] builds one in a fresh buffer and [deserialize] validates the
   header of one read from the device and probes it where it lies. *)
type t = { buf : Bytes.t; nbits : int; k : int }

let hashes = 7
let bits_per_key = 10
let header = 8

let create ~expected_keys =
  let nbits = max 64 (expected_keys * bits_per_key) in
  let buf = Bytes.make (header + ((nbits + 7) / 8)) '\000' in
  Bytes.set_int32_le buf 0 (Int32.of_int nbits);
  Bytes.set_int32_le buf 4 (Int32.of_int hashes);
  { buf; nbits; k = hashes }

(* double hashing on two seeded FNV-1a values *)
let fnv seed s =
  let h = ref (0xcbf29ce484222 lxor seed) in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  !h land max_int

let byte_of i = header + (i / 8)

let set_bit b i =
  Bytes.set b (byte_of i) (Char.chr (Char.code (Bytes.get b (byte_of i)) lor (1 lsl (i mod 8))))

let get_bit b i = Char.code (Bytes.get b (byte_of i)) land (1 lsl (i mod 8)) <> 0
let probe t h1 h2 i = ((h1 + (i * h2)) land max_int) mod t.nbits

let add t key =
  let h1 = fnv 0 key and h2 = fnv 0x9747b28c key in
  for i = 0 to t.k - 1 do
    set_bit t.buf (probe t h1 h2 i)
  done

let mem t key =
  let h1 = fnv 0 key and h2 = fnv 0x9747b28c key in
  let rec go i = i >= t.k || (get_bit t.buf (probe t h1 h2 i) && go (i + 1)) in
  go 0

let bits t = t.nbits
let serialize t = Bytes.copy t.buf

let deserialize b =
  if Bytes.length b < header then invalid_arg "Bloom.deserialize: too short";
  let nbits = Int32.to_int (Bytes.get_int32_le b 0) in
  let k = Int32.to_int (Bytes.get_int32_le b 4) in
  if nbits <= 0 || k <= 0 || Bytes.length b < header + ((nbits + 7) / 8) then
    invalid_arg "Bloom.deserialize: malformed";
  { buf = b; nbits; k }
