let psz = Defs.page_size
let no_frame = Page_table.no_frame

let access m (c : Costs.t) pt ~core ~vpn ~write buf =
  Sim.Costbuf.add buf "irq" (Machine.drain_irq m ~core);
  Sim.Costbuf.add buf "tlb_walk"
    (Tlb.access (Machine.core m core).Machine.tlb c ~vpn);
  Page_table.walk pt ~vpn ~write

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
