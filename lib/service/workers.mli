(** A bounded pool of worker threads for request execution.

    This is where the service's concurrency lives: each query executes
    sequentially, and the pool runs {e many} independent requests
    concurrently on systhreads (requests block on the ledger / audit /
    release-store locks and on I/O, which systhreads handle fine under the
    runtime lock).

    The queue is the admission-control boundary: {!try_submit} refuses
    instead of blocking when [capacity] jobs are already waiting, so the
    caller (the {!Reactor}) can shed load with a typed overload reply
    rather than letting an unbounded backlog build. *)

type t

val create : ?name:string -> workers:int -> capacity:int -> unit -> t
(** Spawn [workers] threads serving a queue that holds at most [capacity]
    waiting jobs (running jobs don't count against it). [name] is only for
    thread naming in diagnostics.
    @raise Invalid_argument unless [workers >= 1] and [capacity >= 1]. *)

val workers : t -> int

val capacity : t -> int

val try_submit : t -> (unit -> unit) -> bool
(** Enqueue a job, or return [false] immediately when the queue is at
    capacity or the pool is shut down. Jobs run exactly once, in FIFO
    order per queue (concurrent workers interleave); exceptions escaping a
    job are swallowed (the job owns its error reporting). *)

val inflight : t -> int
(** Jobs submitted but not yet finished (queued + executing). *)

type stats = { submitted : int; rejected : int; completed : int }

val stats : t -> stats
(** Lifetime counters: accepted submissions, {!try_submit} refusals, and
    jobs that finished running. *)

val shutdown : t -> unit
(** Stop accepting work, let the workers drain every queued job, and join
    them. Idempotent; [try_submit] returns [false] afterwards. *)
