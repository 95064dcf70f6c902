(** System-call interception (Section 4.4).

    Aquila installs its own [MSR_LSTAR] handler: virtual-memory calls
    ([mmap], [munmap], [mremap], [madvise], [mprotect], [msync]) are
    handled in non-root ring 0 at function-call cost; everything else is
    forwarded to the host OS with a vmcall.  Nothing is counted here: the
    calling fiber's [syscall_dispatch] and [syscall_forward] cost labels
    record which path each call took, and a tracer sees each call as a
    ["syscall"] instant named after it. *)

val intercepted : string -> unit
(** [intercepted name] handles a call in place and charges the (small)
    dispatch cost.  Must run inside a fiber. *)

val forwarded : Hw.Costs.t -> Hw.Domain_x.t -> string -> unit
(** [forwarded c dom name] sends a call out of the current domain and
    charges the transition ([syscall] from ring 3, vmcall round trip
    from non-root ring 0). *)

val record_sigbus : unit -> unit
(** [record_sigbus ()] traces a simulated SIGBUS delivery — an mmap'd
    load/store whose backing read died with an unrecoverable device
    error (see {!Fault.Sigbus}) — as a ["SIGBUS"] syscall instant. *)
