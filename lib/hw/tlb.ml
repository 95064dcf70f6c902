type t = {
  slots : int array; (* -1 = empty; direct-mapped on vpn *)
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable invals : int;
  (* all per-core TLBs share the same (unlabelled) metric series *)
  m_hits : Metrics.Registry.cell;
  m_misses : Metrics.Registry.cell;
}

let create ?(capacity = 1536) () =
  if capacity <= 0 then invalid_arg "Tlb.create: capacity";
  {
    slots = Array.make capacity (-1);
    capacity;
    hits = 0;
    misses = 0;
    invals = 0;
    m_hits = Metrics.Registry.counter ~help:"TLB hits" "hw_tlb_hits";
    m_misses =
      Metrics.Registry.counter ~help:"TLB misses (page walks)" "hw_tlb_misses";
  }

let slot_of t vpn = vpn mod t.capacity

let access t (c : Costs.t) ~vpn =
  let s = slot_of t vpn in
  if t.slots.(s) = vpn then begin
    t.hits <- t.hits + 1;
    Metrics.Registry.incr t.m_hits;
    0L
  end
  else begin
    t.misses <- t.misses + 1;
    Metrics.Registry.incr t.m_misses;
    t.slots.(s) <- vpn;
    if Trace.on () then Sim.Probe.instant ~cat:"hw" "tlb_miss_walk";
    c.tlb_miss_walk
  end

let invalidate_local t (c : Costs.t) ~vpn =
  let s = slot_of t vpn in
  if t.slots.(s) = vpn then begin
    t.slots.(s) <- -1;
    t.invals <- t.invals + 1
  end;
  c.tlb_invlpg

(* A shootdown clears the same pages on many TLBs of one capacity, so
   each page's slot (an integer division) is computed once, not once per
   TLB. *)
let invalidate_pages tlbs ~vpns =
  if Array.length tlbs > 0 then begin
    let capacity = tlbs.(0).capacity in
    Array.iter
      (fun t ->
        if t.capacity <> capacity then
          invalid_arg "Tlb.invalidate_pages: capacities differ")
      tlbs;
    let vpns = Array.of_list vpns in
    let at = Array.map (fun vpn -> vpn mod capacity) vpns in
    Array.iter
      (fun t ->
        let slots = t.slots in
        for i = 0 to Array.length vpns - 1 do
          let s = at.(i) in
          if slots.(s) = vpns.(i) then begin
            slots.(s) <- -1;
            t.invals <- t.invals + 1
          end
        done)
      tlbs
  end

let flush t (c : Costs.t) =
  Array.fill t.slots 0 t.capacity (-1);
  t.invals <- t.invals + 1;
  c.tlb_full_flush

let hits t = t.hits
let misses t = t.misses
let invalidations t = t.invals
