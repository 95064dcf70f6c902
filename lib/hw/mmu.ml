let psz = Defs.page_size
let no_frame = -1

let access m (c : Costs.t) pt ~core ~vpn ~write buf =
  Sim.Costbuf.add buf "irq" (Machine.drain_irq m ~core);
  Sim.Costbuf.add buf "tlb_walk"
    (Tlb.access (Machine.core m core).Machine.tlb c ~vpn);
  match Page_table.find pt ~vpn with
  | Some pte when (not write) || pte.Page_table.writable ->
      if write then pte.Page_table.dirty <- true;
      pte.Page_table.pfn
  | _ -> no_frame

let copy ~touch ~frame s r ~write ~off ~len b =
  let buf = Sim.Costbuf.create () in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let page = abs / psz and in_page = abs mod psz in
    let chunk = min (len - !pos) (psz - in_page) in
    let data = frame s (touch s r ~page ~write buf) in
    if write then Bytes.blit b !pos data in_page chunk
    else Bytes.blit data in_page b !pos chunk;
    pos := !pos + chunk
  done;
  Sim.Costbuf.charge buf
