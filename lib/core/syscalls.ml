let dispatch_cost = 80L (* handler dispatch: a function call, no domain switch *)

let intercepted name =
  if Trace.on () then Sim.Probe.instant ~cat:"syscall" name;
  Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"syscall_dispatch" dispatch_cost

let forwarded costs dom name =
  if Trace.on () then begin
    Sim.Probe.instant ~cat:"syscall" name;
    (* forwarding from non-root ring 0 is a vmcall/vmexit round trip *)
    match dom with
    | Hw.Domain_x.Nonroot_ring0 -> Sim.Probe.instant ~cat:"hw" "vmcall"
    | Hw.Domain_x.Ring3 -> ()
  end;
  Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"syscall_forward"
    (Hw.Domain_x.syscall_cost costs dom)

let record_sigbus () =
  if Trace.on () then Sim.Probe.instant ~cat:"syscall" "SIGBUS"
