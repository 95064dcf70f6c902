(* Customizing the mmio path — the capability Linux mmap cannot offer.

   The same workload (a scan-heavy reader over a mapped file on NVMe) runs
   under three per-application configurations of Aquila's I/O path:

   - default policy (no readahead, batched eviction);
   - a streaming policy: madvise(SEQUENTIAL) readahead plus a larger
     eviction batch, tuned for scans;
   - a different device-access method for the same file (host-OS
     syscalls instead of SPDK), showing operation-3 customization.

   Run with: dune exec examples/custom_policy.exe *)

let pages = 4096
let frames = 1024

type setup = {
  label : string;
  tweak : Mcache.Dram_cache.config -> Mcache.Dram_cache.config;
  advice : Aquila.Vma.advice;
  host_access : bool;
}

let run { label; tweak; advice; host_access } =
  let eng = Sim.Engine.create () in
  let s =
    if host_access then
      (* same NVMe device class, reached through the host OS via vmcalls *)
      Experiments.Scenario.make_aquila_access ~frames
        ~access:(fun costs _ ->
          Sdevice.Access.host_nvme costs ~entry:Sdevice.Access.From_guest
            (Sdevice.Nvme.create ()))
        ()
    else Experiments.Scenario.make_aquila ~tweak ~frames ~dev:Experiments.Scenario.Nvme ()
  in
  let ms = ref 0. in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         Aquila.Context.enter_thread s.Experiments.Scenario.a_ctx;
         let blob =
           Blobstore.Store.create_blob s.Experiments.Scenario.a_store ~name:"data"
             ~pages ()
         in
         let f =
           Aquila.Context.attach_file s.Experiments.Scenario.a_ctx ~name:"data"
             ~access:s.Experiments.Scenario.a_access
             ~translate:(Blobstore.Store.translate blob) ~size_pages:pages
         in
         let r =
           Aquila.Context.mmap s.Experiments.Scenario.a_ctx f ~npages:pages ()
         in
         Aquila.Context.madvise r advice;
         let t0 = Sim.Engine.now_f () in
         (* three full sequential scans: the cache holds 1/4 of the file *)
         for _ = 1 to 3 do
           for p = 0 to pages - 1 do
             Aquila.Context.touch s.Experiments.Scenario.a_ctx r ~page:p ~write:false
           done
         done;
         ms := Int64.to_float (Int64.sub (Sim.Engine.now_f ()) t0) /. 2.4e6));
  Sim.Engine.run eng;
  Printf.printf "%-44s %8.2f ms\n" label !ms

let () =
  Printf.printf "Scan-heavy reader, 16MB file, 4MB cache, NVMe:\n";
  run
    {
      label = "default policy (random, SPDK)";
      tweak = Fun.id;
      advice = Aquila.Vma.Normal;
      host_access = false;
    };
  run
    {
      label = "streaming policy (SEQUENTIAL + big batches)";
      tweak =
        (fun c ->
          { c with Mcache.Dram_cache.evict_batch = 256; writeback_merge = 128 });
      advice = Aquila.Vma.Sequential;
      host_access = false;
    };
  run
    {
      label = "host-OS device access (vmcall per I/O)";
      tweak = Fun.id;
      advice = Aquila.Vma.Normal;
      host_access = true;
    }
