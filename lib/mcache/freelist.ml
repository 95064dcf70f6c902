type t = {
  costs : Hw.Costs.t;
  topo : Hw.Topology.t;
  per_core : int Queue.t array;
  per_node : int Queue.t array;
  core_queue_limit : int;
  move_batch : int;
  mutable count : int;
}

let create costs topo ?(core_queue_limit = 512) ?(move_batch = 256) () =
  {
    costs;
    topo;
    per_core = Array.init topo.Hw.Topology.cores (fun _ -> Queue.create ());
    per_node = Array.init topo.Hw.Topology.nodes (fun _ -> Queue.create ());
    core_queue_limit;
    move_batch;
    count = 0;
  }

let add_frame t ~node f =
  Queue.add f t.per_node.(node);
  t.count <- t.count + 1

let move_batch_to_core t node core =
  let nq = t.per_node.(node) and cq = t.per_core.(core) in
  let n = min t.move_batch (Queue.length nq) in
  for _ = 1 to n do
    Queue.add (Queue.pop nq) cq
  done;
  n

let alloc t ~core =
  let c = t.costs in
  let cost = ref c.freelist_op in
  let cq = t.per_core.(core) in
  let node = Hw.Topology.node_of t.topo core in
  let frame =
    match Queue.take_opt cq with
    | Some f -> Some f
    | None ->
        (* refill from local node, then remote nodes *)
        let try_node n =
          if move_batch_to_core t n core > 0 then begin
            (* batched move: one queue transfer amortized over the batch *)
            cost := Int64.add !cost (Int64.mul 2L c.freelist_op);
            Queue.take_opt cq
          end
          else None
        in
        let rec try_nodes = function
          | [] -> None
          | n :: rest -> ( match try_node n with Some f -> Some f | None -> try_nodes rest)
        in
        let remote =
          List.filter (fun n -> n <> node) (List.init t.topo.Hw.Topology.nodes Fun.id)
        in
        try_nodes (node :: remote)
  in
  (match frame with Some _ -> t.count <- t.count - 1 | None -> ());
  (frame, !cost)

let free t ~core f =
  let c = t.costs in
  let cq = t.per_core.(core) in
  Queue.add f cq;
  t.count <- t.count + 1;
  let cost = ref c.freelist_op in
  if Queue.length cq > t.core_queue_limit then begin
    let node = Hw.Topology.node_of t.topo core in
    let n = min t.move_batch (Queue.length cq) in
    for _ = 1 to n do
      Queue.add (Queue.pop cq) t.per_node.(node)
    done;
    cost := Int64.add !cost (Int64.mul 2L c.freelist_op)
  end;
  !cost

let steal_any t =
  let take q = Queue.take_opt q in
  let rec first_of = function
    | [] -> None
    | q :: rest -> ( match take q with Some f -> Some f | None -> first_of rest)
  in
  let r = first_of (Array.to_list t.per_node @ Array.to_list t.per_core) in
  (match r with Some _ -> t.count <- t.count - 1 | None -> ());
  r

let free_count t = t.count
