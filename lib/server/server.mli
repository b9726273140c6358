(** A long-lived query-serving daemon over one integrated-schema
    session.

    The operational payoff of integration (paper sections 1 and 5) as a
    network service: component schemas plus a recorded integration
    session are loaded once, the integrated schema and mappings are
    built, component instances are migrated, and then view/global
    queries, updates and re-migrations are served over a line-delimited
    JSON protocol ({!Wire}, reference in [docs/SERVING.md]) on a Unix
    or TCP socket.

    Concurrency model: {!serve} runs [jobs] {e lanes} — the calling
    domain is lane 0 and [jobs - 1] more domains are spawned.  Each
    accepted connection is placed on the lane with the fewest live
    connections (ties to the lowest index) and served there by its own
    thread, created inside that lane's domain: framing, decode,
    execution, render and write all happen on that domain, and
    responses go out in request order.  Connections on different lanes
    run in parallel; no request crosses a domain.  Data operations pass
    a {e bounded} in-flight counter — when the bound is hit the request
    is answered [overloaded] immediately instead of buffering without
    limit.  [health] and [metrics] bypass the bound so the daemon stays
    observable under load.  Per-request deadlines are checked when
    execution starts and, for read ops, again after evaluation;
    either miss answers [deadline_exceeded].  Mutating ops skip the
    second check: once applied, a mutation is acknowledged (and, on a
    leader, replicated) — the deadline can only reject it before it
    runs, never misreport it after.

    Rewrite plans (view and global unfoldings) are cached in an LRU
    keyed by (view class, query shape) — the canonical printing of the
    parsed query — with hits/misses/evictions on [server.cache_*]
    counters and in {!stats}.

    Every protocol failure is a typed error {e response}; no exception
    of the query layer ([Query.Parser.Error], [Query.Rewrite.Unmapped],
    [Query.Eval.Error], [Query.Update.Error]) ever kills the daemon or
    a lane.  Shutdown ({!stop}, or SIGTERM in [bin/sit_serve]) stops
    accepting, answers every in-flight request, wakes idle connections,
    joins every connection thread and then every lane domain. *)

module Wire = Wire
module Lru = Lru
module Client = Client
module View = View
(** The materialized-view catalog the daemon serves from; re-exported
    so client code can name policies and decode {!View.info}. *)

(** {1 Session} *)

type session = {
  schemas : Ecr.Schema.t list;  (** the component schemas *)
  result : Integrate.Result.t;
  component_stores : (Ecr.Schema.t * Instance.Store.t) list;
  initial_merged : Instance.Store.t;  (** the migrated instance *)
  migration : Query.Migrate.report;
  journal_dir : string option;
      (** when set, the server persists its view catalog to
          [DIR/views.journal] (framed log, {!Journal.Frames}) and
          replays it on {!create} *)
}

val make_session :
  ?journal_dir:string ->
  result:Integrate.Result.t ->
  stores:(Ecr.Schema.t * Instance.Store.t) list ->
  unit ->
  session
(** Builds the serving state from an in-memory integration result and
    component stores (migrates immediately).  The test suite's entry
    point. *)

type setup = {
  schema_files : string list;  (** ECR DDL files *)
  script : string option;  (** session script ({!Integrate.Script}) *)
  data : string option;  (** instance file ({!Instance.Loader}) *)
  journal : string option;
      (** journal directory: the setup session is write-ahead logged to
          [DIR/serve.journal] and a restart resumes from it
          automatically (then compacts) *)
  name : string option;  (** name of the integrated schema *)
}

val load_session : setup -> (session, string) result
(** The [bin/sit_serve] entry point: everything from files, every
    failure (DDL/script/instance syntax, assertion conflicts, journal
    mismatches) as a printable [Error]. *)

(** {1 Server} *)

(** Replication role (docs/ROBUSTNESS.md).  A [Leader] appends every
    acknowledged mutation to its replication log and serves the
    [repl_*] stream; a [Follower] tails the given leader address,
    applies the stream to its own state, serves reads, and answers
    every write with a typed [not_leader] redirect. *)
type role = Leader | Follower of Wire.addr

type repl_config = {
  role : role;
  ack_replicas : int;
      (** leader only: hold each mutation's response until this many
          followers have acknowledged its seq ([0] = asynchronous) *)
  ack_timeout_ms : int;
      (** bound on that wait; on expiry the mutation — already applied
          locally — is answered [internal] ("replicated-unknown") *)
  batch : int;  (** follower only: frames per [repl_pull] *)
  wait_ms : int;  (** follower only: long-poll budget per pull *)
  throttle_ms : int;
      (** follower only, test hook: sleep between pulls so a catch-up
          window is observable *)
  compact_every : int;
      (** leader only: snapshot the serving state and truncate the
          covered replication-log prefix every this many acknowledged
          writes ([0] disables automatic compaction; the [repl_compact]
          wire op always works).  Bounds leader memory, disk and
          restart time by the compaction window instead of total write
          count (docs/ROBUSTNESS.md "Log growth"). *)
  liveness_s : float;
      (** leader only: a follower that has not pulled for this long is
          considered gone — its ack stops counting toward quorums and
          stops pinning the compaction bound *)
}

val default_repl : repl_config
(** [Leader], asynchronous (ack 0, timeout 10 s), batch 64, 200 ms
    long-poll, no throttle, no automatic compaction, 30 s follower
    liveness. *)

type config = {
  listen : Wire.addr;
  jobs : int;
      (** lanes: domains serving connections, the one calling {!serve}
          included ([1] keeps everything on that domain) *)
  queue : int;  (** max in-flight data requests before [overloaded] *)
  deadline_ms : int option;  (** default per-request deadline *)
  cache : int;  (** rewrite-plan LRU capacity; [0] disables *)
  debug : bool;
      (** accept the test-only [sleep] op (a data operation of a chosen
          duration), used to pin down backpressure and drain behaviour
          deterministically; [false] everywhere but the test suite *)
  repl : repl_config;
}

val default_config : Wire.addr -> config
(** jobs [Par.default_jobs ()], queue 64, no deadline, cache 128,
    replication {!default_repl}. *)

type stats = {
  requests : int;
  ok : int;
  errors : int;
  overloaded : int;
  deadline_exceeded : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  connections : int;
}

type t

val create : session -> config -> (t, string) result
(** Binds and listens (for [Tcp] with port [0], the kernel picks the
    port — see {!port}); no thread or domain is started yet, and a
    server that is only {!exec}uted never starts one.  When the session
    has a [journal_dir], the view catalog logged to [views.journal] is
    replayed here (definitions the current session can no longer
    satisfy are dropped) and the log compacted.  A [Leader] with a
    [journal_dir] also recovers [DIR/repl.journal] (longest valid
    prefix) and replays it into its runtime state, so a restarted
    leader serves exactly what it last acknowledged.  When compaction
    has run, recovery is snapshot + suffix: the newest readable
    [DIR/repl.snap.<seq>] is installed and only frames after its seq
    replay — a torn snapshot tail falls back to the previous retained
    snapshot.  [Error] when the log is truncated past every readable
    snapshot (state would be unreconstructible). *)

val start_follower : t -> unit
(** Starts the follower tail thread (no-op on a leader; idempotent).
    {!serve} calls this itself — it is exposed for tests that drive a
    follower without an accept loop. *)

val define_view :
  t ->
  name:string ->
  ?base:string ->
  ?policy:View.policy ->
  string ->
  (unit, string) result
(** Registers and materializes a named view from its query text, as the
    wire [define_view] operation does — the entry point for definitions
    given on the [sit_serve] command line before serving starts.  With
    [base], the text is a component-view query rewritten through the
    mapping; without, it must already be in integrated-schema terms.
    [policy] defaults to [Lazy].  The definition is appended to the
    catalog log when the session has one. *)

val port : t -> int option
(** The bound TCP port, [None] for Unix sockets. *)

val serve : t -> unit
(** Starts the [jobs - 1] lane domains, then runs the accept loop on the
    calling thread, whose domain is lane 0.  Returns only after a
    {!request_stop} (or {!stop} from another thread) has been honoured
    and the server fully drained: every connection closed, every lane
    domain joined. *)

val start : session -> config -> (t, string) result
(** {!create} + {!serve} on a background thread — the in-process mode
    the tests and the bench harness use. *)

val request_stop : t -> unit
(** Flags the server to stop; safe to call from a signal handler.  The
    accept loop notices within its polling interval and drains. *)

val stop : t -> unit
(** {!request_stop}, then waits for the drain to complete (joins the
    background thread when the server was {!start}ed).  Idempotent. *)

val stats : t -> stats
(** A consistent-enough snapshot of the server's own counters (kept
    independently of [lib/obs], which may be disabled). *)

val exec : t -> string -> string
(** One JSON request line to one canonical JSON response line, through
    exactly the dispatch a connection uses (queue admission, deadlines,
    mutation ordering), on the caller's thread and with no socket — the
    offline leg of the scenario differential harness
    ([Workload.Scenario]), which must be byte-identical to what a wire
    client observes. *)

(** Test hooks; not part of the serving surface. *)
module For_testing : sig
  val with_state : t -> (Instance.Store.t -> View.t -> 'a) -> 'a
  (** Runs [f merged views] under the state lock — lets the scenario
      harness compare materialized extents against recomputation at
      schedule barriers without going through the wire. *)

  val set_delay_after_op_ms : int -> unit
  (** Injects artificial latency (process-wide, [0] disables) between
      an op completing and the post-execution deadline check, making
      "finished after its deadline" deterministically reachable: reads
      must then answer [deadline_exceeded], while mutations must still
      answer [ok] and reach the replication log — an applied mutation
      is never reported (or replicated) as if it had not happened. *)

  type conn_info = {
    conn : int;  (** connection id, in accept order from 0 *)
    lane : int;  (** the lane it was placed on *)
    domain : int option;
        (** [Domain.self ()] of its handler thread, once that runs *)
  }

  val connections : t -> conn_info list
  (** The live connections, by id. *)

  val lane_domains : t -> int
  (** Lane domains whose loop is running: [jobs - 1] while serving,
      [0] before {!serve} and after the drain — counted by the lanes
      themselves, so a lane the drain failed to stop still shows. *)
end
