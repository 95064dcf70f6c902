type send_mode = Posted | Vmexit_send | Kernel_ipi

(* Metric cells are domain-local; shootdowns are far off the hot path,
   so the DLS lookup per batch is fine. *)
let m_shoot_key : Metrics.Registry.cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Metrics.Registry.counter ~help:"TLB shootdown batches"
        "hw_tlb_shootdowns")

let m_ipi_key : Metrics.Registry.cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Metrics.Registry.counter ~help:"IPIs delivered to remote cores"
        "hw_ipis_sent")

let send_cost (c : Costs.t) = function
  | Posted -> c.ipi_send_posted
  | Vmexit_send -> c.ipi_send_vmexit
  | Kernel_ipi -> c.ipi_send_posted (* x2APIC write; receive side dominates *)

(* Above this many pages one full TLB flush replaces per-page invlpgs
   (Linux's tlb_single_page_flush_ceiling; Aquila applies the same rule).
   The initiator and every receiver of a shootdown read this one value. *)
let full_flush_above = 33

let shootdown m (c : Costs.t) ~mode ~src ~targets ~vpns =
  let targets = List.filter (fun t -> t <> src) targets in
  match targets with
  | [] -> 0L
  | _ :: _ ->
      Metrics.Registry.incr (Domain.DLS.get m_shoot_key);
      Metrics.Registry.add (Domain.DLS.get m_ipi_key) (List.length targets);
      let npages = List.length vpns in
      if Trace.on () then begin
        Sim.Probe.instant ~cat:"hw"
          ~value:(Int64.of_int (List.length targets))
          (match mode with
          | Posted -> "ipi_send_posted"
          | Vmexit_send -> "ipi_send_vmexit"
          | Kernel_ipi -> "ipi_send_kernel");
        Sim.Probe.instant ~cat:"hw" ~value:(Int64.of_int npages) "tlb_shootdown"
      end;
      (* Receiver work: interrupt entry plus one invlpg per page (a full
         flush if the batch is large, as Linux and Aquila both do). *)
      let invalidate_cost =
        if npages > full_flush_above then c.tlb_full_flush
        else Int64.mul (Int64.of_int npages) c.tlb_invlpg
      in
      let per_receiver = Int64.add c.ipi_receive invalidate_cost in
      (* each receiver's core record is read once per batch *)
      let receivers = Array.map (Machine.core m) (Array.of_list targets) in
      Tlb.invalidate_pages (Array.map (fun co -> co.Machine.tlb) receivers) ~vpns;
      Array.iter
        (fun co ->
          if Trace.on () then
            Sim.Probe.instant_on_core ~core:co.Machine.id ~cat:"hw"
              ~value:per_receiver "ipi_recv";
          Machine.receive_irq co per_receiver)
        receivers;
      (* Sender: one send per batch (posted IPIs broadcast), then wait for
         the slowest ack; receivers proceed in parallel. *)
      Int64.add (send_cost c mode) per_receiver

let invalidate m c ~mode ~core ~targets ~vpns =
  match vpns with
  | [] -> 0L
  | _ :: _ ->
      let own = (Machine.core m core).Machine.tlb in
      let local =
        if List.length vpns > full_flush_above then Tlb.flush own c
        else
          List.fold_left
            (fun acc vpn -> Int64.add acc (Tlb.invalidate_local own c ~vpn))
            0L vpns
      in
      Int64.add local (shootdown m c ~mode ~src:core ~targets ~vpns)

let shootdowns_sent () = Metrics.Registry.get (Domain.DLS.get m_shoot_key)
