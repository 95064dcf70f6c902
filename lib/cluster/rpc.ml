(* Inter-node RPC over one engine: virtual wire latency both ways, a
   per-attempt timeout armed as an external event, and exponential
   virtual-time backoff between attempts.  Requests to (or replies from)
   a down node are dropped at delivery time, so the caller observes a
   partition exactly as a real client would: silence, then timeout.

   Each delivered request runs in its own freshly spawned handler fiber
   on the destination node's core (tagged with the node id for
   Engine.blocked_report), so a handler that itself waits on a
   downstream RPC — the replication chain — never head-of-line blocks
   or deadlocks the node. *)

type config = {
  wire_latency : int;
  timeout : int;
  backoff_base : int;
  backoff_cap : int;
  max_attempts : int;
}

let default_config =
  {
    wire_latency = 20_000;
    timeout = 4_000_000;
    backoff_base = 100_000;
    backoff_cap = 1_600_000;
    max_attempts = 4;
  }

(* Pure: attempt 0 sleeps base, each retry doubles, capped.  Unit-tested
   against the virtual clock in test/test_cluster.ml. *)
let backoff_delay cfg ~attempt =
  let shift = min (max attempt 0) 20 in
  let d = cfg.backoff_base lsl shift in
  if d <= 0 then cfg.backoff_cap else min cfg.backoff_cap d

exception Unreachable of { node : int; attempts : int }
exception Drop

let () =
  Printexc.register_printer (function
    | Unreachable { node; attempts } ->
        Some
          (Printf.sprintf "Aqcluster.Rpc.Unreachable(node=%d, attempts=%d)"
             node attempts)
    | _ -> None)

(* Metric cells are bound lazily per domain (the --jobs fan-out runs
   each job in its own domain), mirroring lib/fault. *)
let m_timeouts_key : Metrics.Registry.cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Metrics.Registry.counter ~help:"cluster RPC attempts that timed out"
        "cluster_rpc_timeouts")

let m_retries_key : Metrics.Registry.cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Metrics.Registry.counter ~help:"cluster RPC retries after a timeout"
        "cluster_rpc_retries")

type ('req, 'resp) t = {
  eng : Sim.Engine.t;
  cfg : config;
  nodes : int;
  alive : int -> bool;
  handlers : ('req -> 'resp) option array;
  mutable n_timeouts : int;
  mutable n_retries : int;
}

let create ~eng ~cfg ~nodes ~alive =
  {
    eng;
    cfg;
    nodes;
    alive;
    handlers = Array.make nodes None;
    n_timeouts = 0;
    n_retries = 0;
  }

let set_handler t node h = t.handlers.(node) <- Some h
let timeouts t = t.n_timeouts
let retries t = t.n_retries

(* src = -1 is the external client (always reachable). *)
let alive t i = i < 0 || t.alive i

let call t ~src ~dst req =
  let result = ref None in
  let fired = ref false in
  Sim.Engine.suspend (fun resume ->
      (* one-shot: whichever of reply/timeout lands first wins; the
         loser sees [fired] and must not resume a second time *)
      let finish r =
        if not !fired then begin
          fired := true;
          result := r;
          resume ()
        end
      in
      let now = Int64.to_int (Sim.Engine.now t.eng) in
      Sim.Engine.post t.eng ~at:(Int64.of_int (now + t.cfg.timeout))
        (fun () ->
          if not !fired then begin
            t.n_timeouts <- t.n_timeouts + 1;
            Metrics.Registry.incr (Domain.DLS.get m_timeouts_key)
          end;
          finish None);
      if alive t src then
        Sim.Engine.post t.eng ~at:(Int64.of_int (now + t.cfg.wire_latency))
          (fun () ->
            if alive t dst then
              match t.handlers.(dst) with
              | None -> ()
              | Some h ->
                  ignore
                    (Sim.Engine.spawn t.eng
                       ~name:(Printf.sprintf "rpc@%d" dst)
                       ~core:dst
                       (fun () ->
                         Sim.Engine.set_node_id (Sim.Engine.self ()) dst;
                         match (try Some (h req) with Drop -> None) with
                         | None -> () (* dropped: the caller times out *)
                         | Some resp ->
                             if alive t dst then begin
                               let rnow =
                                 Int64.to_int (Sim.Engine.now t.eng)
                               in
                               Sim.Engine.post t.eng
                                 ~at:
                                   (Int64.of_int
                                      (rnow + t.cfg.wire_latency))
                                 (fun () ->
                                   if alive t src then finish (Some resp))
                             end))));
  !result

let note_retry t =
  t.n_retries <- t.n_retries + 1;
  Metrics.Registry.incr (Domain.DLS.get m_retries_key)

let call_retry t ~src ~dst req =
  let rec go attempt =
    match call t ~src ~dst req with
    | Some r -> r
    | None ->
        let next = attempt + 1 in
        if next >= t.cfg.max_attempts then
          raise (Unreachable { node = dst; attempts = next })
        else begin
          note_retry t;
          Sim.Engine.idle_wait (Int64.of_int (backoff_delay t.cfg ~attempt));
          go next
        end
  in
  go 0
