
type file = {
  fread : off:int -> len:int -> dst:Bytes.t -> unit;
  fwrite : off:int -> len:int -> src:Bytes.t -> unit;
  fsync : unit -> unit;
  fdelete : unit -> unit;
  fsize : int;
}

type t = {
  ename : string;
  mk : name:string -> size_pages:int -> file;
  staging : Sdevice.Bufpool.pages;
}

let name t = t.ename
let staging t = t.staging
let create_file t ~name ~size_pages = t.mk ~name ~size_pages
let read f = f.fread
let write f = f.fwrite
let sync f = f.fsync ()
let delete f = f.fdelete ()
let size_pages f = f.fsize

let direct_ucache ~store ~device_access ~ucache =
  let staging = Sdevice.Bufpool.pages () in
  let next_id = ref 100000 (* distinct from mmio context fids *) in
  let mk ~name ~size_pages =
    ignore name;
    let blob = Blobstore.Store.create_blob store ~name ~pages:size_pages () in
    incr next_id;
    let file_id = !next_id in
    let fd =
      Linux_sim.Readwrite.open_direct ~access:device_access
        ~translate:(Blobstore.Store.translate blob) ~size_pages ~staging
    in
    Uspace.User_cache.register_file ucache ~file_id ~fd;
    {
      fread =
        (fun ~off ~len ~dst -> Uspace.User_cache.read ucache ~file_id ~off ~len ~dst);
      fwrite =
        (fun ~off ~len ~src -> Uspace.User_cache.write ~len ucache ~file_id ~off ~src);
      fsync = (fun () -> () (* O_DIRECT writes are already on the device *));
      fdelete =
        (fun () ->
          Uspace.User_cache.invalidate_file ucache ~file_id;
          Blobstore.Store.delete store blob);
      fsize = size_pages;
    }
  in
  { ename = "read/write"; mk; staging }

let linux_mmap ~store ~msys ~device_access =
  let mk ~name ~size_pages =
    let blob = Blobstore.Store.create_blob store ~name ~pages:size_pages () in
    let lf =
      Linux_sim.Mmap_sys.attach_file msys ~name ~access:device_access
        ~translate:(Blobstore.Store.translate blob) ~size_pages
    in
    let region = Linux_sim.Mmap_sys.mmap msys lf ~npages:size_pages () in
    {
      fread = (fun ~off ~len ~dst -> Linux_sim.Mmap_sys.read msys region ~off ~len ~dst);
      fwrite = (fun ~off ~len ~src -> Linux_sim.Mmap_sys.write ~len msys region ~off ~src);
      fsync = (fun () -> Linux_sim.Mmap_sys.msync msys region);
      fdelete =
        (fun () ->
          Linux_sim.Mmap_sys.munmap msys region;
          Linux_sim.Page_cache.drop_file
            (Linux_sim.Mmap_sys.page_cache msys)
            ~core:(Sim.Engine.self ()).Sim.Engine.core
            ~file_id:(Linux_sim.Mmap_sys.file_id lf);
          Blobstore.Store.delete store blob);
      fsize = size_pages;
    }
  in
  { ename = "mmap"; mk; staging = Sdevice.Bufpool.pages () }

let aquila ~store ~ctx ~device_access =
  let mk ~name ~size_pages =
    let blob = Blobstore.Store.create_blob store ~name ~pages:size_pages () in
    let af =
      Aquila.Context.attach_file ctx ~name ~access:device_access
        ~translate:(Blobstore.Store.translate blob) ~size_pages
    in
    let region = Aquila.Context.mmap ctx af ~npages:size_pages () in
    {
      fread = (fun ~off ~len ~dst -> Aquila.Context.read ctx region ~off ~len ~dst);
      fwrite = (fun ~off ~len ~src -> Aquila.Context.write ~len ctx region ~off ~src);
      fsync = (fun () -> Aquila.Context.msync ctx region);
      fdelete =
        (fun () ->
          Aquila.Context.munmap ctx region;
          Mcache.Dram_cache.drop_file (Aquila.Context.cache ctx)
            ~core:(Sim.Engine.self ()).Sim.Engine.core
            ~file_id:(Aquila.Context.file_id af);
          Blobstore.Store.delete store blob);
      fsize = size_pages;
    }
  in
  { ename = "aquila"; mk; staging = Sdevice.Bufpool.pages () }
