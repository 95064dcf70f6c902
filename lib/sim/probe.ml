(* Fiber-aware tracepoints: thin wrappers that stamp Trace events with the
   enclosing fiber's virtual time, core and id.  Every entry point checks
   [Trace.on] first, so a disabled probe costs one load and branch; sites
   outside a running fiber drop the event. *)

let fiber_ctx () = try Some (Engine.self ()) with Invalid_argument _ -> None

let emit_instant ~cat ~value name =
  match (Trace.current (), fiber_ctx ()) with
  | Some tr, Some c ->
      Trace.instant tr ~ts:(Engine.now_f ()) ~core:c.Engine.core
        ~fiber:c.Engine.fid ~cat ?value name
  | _ -> ()

let[@inline] instant ?(cat = "sim") ?value name =
  if Atomic.get Trace.live > 0 then emit_instant ~cat ~value name

let emit_instant_on_core ~core ~cat ~value name =
  match (Trace.current (), fiber_ctx ()) with
  | Some tr, Some _ ->
      Trace.instant tr ~ts:(Engine.now_f ()) ~core ~fiber:0 ~cat ?value name
  | _ -> ()

let[@inline] instant_on_core ~core ?(cat = "sim") ?value name =
  if Atomic.get Trace.live > 0 then emit_instant_on_core ~core ~cat ~value name

let emit_counter ~cat ~value name =
  match (Trace.current (), fiber_ctx ()) with
  | Some tr, Some c ->
      Trace.counter tr ~ts:(Engine.now_f ()) ~core:c.Engine.core ~cat ~value name
  | _ -> ()

let[@inline] counter ?(cat = "sim") name value =
  if Atomic.get Trace.live > 0 then emit_counter ~cat ~value name

let span_start () = if Atomic.get Trace.live > 0 then Engine.now_f () else 0L

let emit_span_since ~cat ~value ~t0 name =
  match (Trace.current (), fiber_ctx ()) with
  | Some tr, Some c ->
      Trace.span tr ~ts:t0
        ~dur:(Int64.sub (Engine.now_f ()) t0)
        ~core:c.Engine.core ~fiber:c.Engine.fid ~cat ?value name
  | _ -> ()

let[@inline] span_since ?(cat = "sim") ?value ~t0 name =
  if Atomic.get Trace.live > 0 then emit_span_since ~cat ~value ~t0 name
