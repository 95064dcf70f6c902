type core = {
  id : int;
  tlb : Tlb.t;
  mutable pending_irq : int;
  mutable irqs_received : int;
}

type t = { topo : Topology.t; core_arr : core array }

let create ?(topology = Topology.default) ?tlb_capacity () =
  let mk i =
    { id = i; tlb = Tlb.create ?capacity:tlb_capacity (); pending_irq = 0; irqs_received = 0 }
  in
  { topo = topology; core_arr = Array.init topology.Topology.cores mk }

let topology t = t.topo

let core t i =
  if i < 0 || i >= Array.length t.core_arr then invalid_arg "Machine.core: bad id";
  t.core_arr.(i)

let cores t = t.core_arr

let receive_irq co c =
  co.pending_irq <- co.pending_irq + Int64.to_int c;
  co.irqs_received <- co.irqs_received + 1

let deliver_irq t ~core:i c = receive_irq (core t i) c

let drain_irq t ~core:i =
  let co = core t i in
  let p = co.pending_irq in
  if p = 0 then 0L
  else begin
    co.pending_irq <- 0;
    Int64.of_int p
  end
