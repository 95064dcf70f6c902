(* Quickstart: the minimal Aquila application.

   Mirrors the paper's porting story (Section 4): one call to initialize
   the context in [main], one call per thread to enter Aquila mode, and
   from then on storage is just memory — [mmap] a file, load and store
   bytes, [msync] to persist.  Everything runs inside the deterministic
   simulation engine, so the printed costs are virtual cycles at 2.4 GHz.

   Run with: dune exec examples/quickstart.exe *)

let pages = 256 (* a 1 MiB file *)

let () =
  (* 1. Create the simulated machine and the Aquila context (the call the
        paper adds to the application's main()). *)
  let eng = Sim.Engine.create () in
  let ctx = Aquila.Context.create (Aquila.Context.default_config ~cache_frames:128) in

  (* 2. A DAX pmem device holds our data; attach a file over it. *)
  let pmem = Sdevice.Pmem.create () in
  let access = Sdevice.Access.dax_pmem (Aquila.Context.costs ctx) pmem in
  let file =
    Aquila.Context.attach_file ctx ~name:"quickstart.dat" ~access
      ~translate:(fun p -> if p < pages then Some p else None)
      ~size_pages:pages
  in

  (* 3. Application code runs as a fiber (a simulated thread). *)
  let _ =
    Sim.Engine.spawn eng ~name:"app" ~core:0 (fun () ->
        Aquila.Context.enter_thread ctx;
        let region = Aquila.Context.mmap ctx file ~npages:pages () in

        (* Store a record 600 KiB into the file: the write faults, the
           cache allocates a frame, and dirty tracking begins. *)
        let msg = Bytes.of_string "aquila: memory-mapped I/O on steroids" in
        Aquila.Context.write ctx region ~off:614400 ~src:msg;

        (* Load it back: the page is mapped now, so this is a pure mmio
           hit — no software on the path. *)
        let back = Bytes.create (Bytes.length msg) in
        Aquila.Context.read ctx region ~off:614400 ~len:(Bytes.length msg) ~dst:back;
        Printf.printf "read back: %s\n" (Bytes.to_string back);

        (* Persist: sorted, merged write-back of the dirty pages. *)
        Aquila.Context.msync ctx region;

        Printf.printf "accesses: %d, faults: %d\n"
          (Metrics.Registry.value "aquila_mem_accesses")
          (Aquila.Context.faults ctx))
  in
  Sim.Engine.run eng;

  let cache = Aquila.Context.cache ctx in
  Printf.printf "cache: %d misses, %d write-back I/Os, %d pages written\n"
    (Mcache.Dram_cache.misses cache)
    (Mcache.Dram_cache.writeback_ios cache)
    (Mcache.Dram_cache.writeback_pages cache);
  Printf.printf "virtual time: %.2f us\n"
    (Int64.to_float (Sim.Engine.now eng) /. 2400.)
