type t = {
  gran : int64;
  mutable frames : bool array; (* [frames.(f)] = huge frame [f] mapped *)
  mutable nfaults : int;
}

let one_gib = 1073741824L

let create ?(granularity_bytes = one_gib) () =
  if Int64.compare granularity_bytes 4096L < 0 then
    invalid_arg "Ept.create: granularity below a base page";
  { gran = granularity_bytes; frames = Array.make 64 false; nfaults = 0 }

let granularity t = t.gran
let frame_of t gpa = Int64.to_int (Int64.div gpa t.gran)
let mem t f = f >= 0 && f < Array.length t.frames && t.frames.(f)

let touch t (c : Costs.t) ~gpa =
  let f = frame_of t gpa in
  if mem t f then 0L
  else begin
    if f < 0 then invalid_arg "Ept.touch: negative address";
    let n = Array.length t.frames in
    if f >= n then begin
      let frames = Array.make (max (2 * n) (f + 1)) false in
      Array.blit t.frames 0 frames 0 n;
      t.frames <- frames
    end;
    t.nfaults <- t.nfaults + 1;
    t.frames.(f) <- true;
    if Trace.on () then Sim.Probe.instant ~cat:"hw" "ept_fault";
    (* vmexit out, host handles the violation, vmentry back *)
    Int64.add (Int64.mul 2L c.vmexit) c.ept_fault
  end

let unmap_range t ~gpa ~len =
  let first = frame_of t gpa in
  let last = frame_of t (Int64.add gpa (Int64.sub len 1L)) in
  let dropped = ref 0 in
  for f = max 0 first to min last (Array.length t.frames - 1) do
    if t.frames.(f) then begin
      t.frames.(f) <- false;
      incr dropped
    end
  done;
  !dropped

let faults t = t.nfaults

let mapped_frames t =
  Array.fold_left (fun n m -> if m then n + 1 else n) 0 t.frames
