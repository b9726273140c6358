(* The repository benchmark (perfbench/README.md).

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               --serve PATH/sit_serve.exe [--work DIR]

   Serving workloads start every sit_serve node as its own process from
   files rendered by Workload.Scenario and drive it over two closed-loop
   connections; integrate-session replays the DDA's directive script in
   process.  Every answer is checked.  The last stdout line is one JSON
   object: {"correct", "attempted", "failed", "metrics"} — end-to-end
   metrics with --trace 0, per-layer metrics with --trace 1. *)

open Util
module Scenario = Workload.Scenario
module Json = Obs.Json

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  exe : string;
  work : string;
}

(* ---- the result ------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []
(* A layer the workload never reached reads 0, never nan. *)
let metric name unit v =
  metrics := (name, (if Float.is_finite v then v else 0.), unit) :: !metrics
let provenance : (string * Json.t) list ref = ref []
let note k v = provenance := (k, v) :: !provenance
let attempted = ref 0
let failed = ref 0

(* Counts one checked outcome; the first few mismatches are shown on
   stderr. *)
let outcome ?(counted = false) ok what =
  if not counted then incr attempted;
  if not ok then begin
    incr failed;
    if !failed <= 5 then prerr_endline ("perfbench: mismatch: " ^ what ())
  end

let tally conns =
  List.iter
    (fun (c : Load.conn) ->
      attempted := !attempted + c.Load.attempted;
      failed := !failed + c.Load.failed)
    conns

(* ---- inputs and in-process nodes --------------------------------------- *)

let path o name = Filename.concat o.work name

let inputs o kind =
  let p = Decks.params kind in
  let prep_s, sc = timed (fun () -> Scenario.generate p) in
  let files = Scenario.write_files ~dir:(path o "inputs") sc in
  note "scenario"
    (Json.Obj
       [
         ("seed", Json.Int p.Scenario.seed);
         ("schemas", Json.Int p.Scenario.schemas);
         ("concepts", Json.Int p.Scenario.concepts);
         ("population", Json.Int p.Scenario.population);
         ("views", Json.Int (List.length sc.Scenario.views));
         ("directives", Json.Int (List.length sc.Scenario.directives));
         ("generate_s", Json.Float prep_s);
       ]);
  (sc, files)

(* A Server.create'd node over the same files the daemons load. *)
let in_process ?journal ?(cache = 128) ?(compact_every = 0) (files : Scenario.files) sc =
  let setup =
    {
      Server.schema_files = [ files.Scenario.ddl ];
      script = Some files.Scenario.script;
      data = Some files.Scenario.data;
      journal;
      name = None;
    }
  in
  match Server.load_session setup with
  | Error e -> fail "in-process session: %s" e
  | Ok session -> (
      let cfg =
        {
          (Server.default_config (Server.Wire.Tcp ("127.0.0.1", 0))) with
          jobs = 2;
          queue = 64;
          cache;
          repl = { Server.default_repl with compact_every };
        }
      in
      match Server.create session cfg with
      | Error e -> fail "in-process server: %s" e
      | Ok t ->
          List.iteri
            (fun i (v : Scenario.view_def) ->
              match
                Server.define_view t ~name:v.Scenario.v_name ~base:v.Scenario.v_base
                  ?policy:(Server.View.policy_of_string (Decks.view_policy i))
                  v.Scenario.v_source
              with
              | Ok () -> ()
              | Error e -> fail "view %s: %s" v.Scenario.v_name e)
            sc.Scenario.views;
          (t, session))

(* ---- daemons ---------------------------------------------------------- *)

let node_args ?journal ?follow ?report ?(views = []) ~jobs ~ack ~compact
    (files : Scenario.files) =
  let opt flag = function Some v -> [ flag; v ] | None -> [] in
  [
    files.Scenario.ddl; "--script"; files.Scenario.script; "--data"; files.Scenario.data;
    "--listen"; "127.0.0.1:0"; "--jobs"; string_of_int jobs; "--queue"; "64";
    "--cache"; "128"; "--ack-replicas"; string_of_int ack; "--compact-every";
    string_of_int compact;
  ]
  @ opt "--journal" journal @ opt "--follow" follow @ opt "--metrics" report @ views

let launches = ref 0

let start_node o args =
  incr launches;
  Proc.start ~exe:o.exe ~log:(path o (Printf.sprintf "node-%d.log" !launches)) args

let health n = Proc.request n "health"

(* [setup_s]: the median of repeated set-ups (Util.repeat_median); all
   but the last deployment are discarded, the last one is measured. *)
let median_setup ~discard setup =
  let last = ref None in
  let med =
    repeat_median (fun () ->
        Option.iter discard !last;
        let dt, d = timed setup in
        last := Some d;
        dt)
  in
  (med, Option.get !last)

let warmup o = Float.min 1. (o.seconds /. 10.)

(* The end-to-end throughput and median latency over every op that
   completed between the first and the last of [cuts] (by default the
   whole window): ops over that time, and the median of their
   latencies.  The window is also cut into half-second slices, whose
   median figures and tails go to the provenance line only; the tails
   do not repeat from run to run within any bound the comparison could
   use. *)
let latency_metrics ?cuts o (w : Load.window) =
  let cuts = match cuts with Some c -> c | None -> [ 0.; o.seconds ] in
  let whole = List.hd (Load.slices w ~cuts:[ List.hd cuts; List.nth cuts (List.length cuts - 1) ]) in
  metric "ops_per_s" "1/s" whole.Load.rate;
  metric "lat_p50_ms" "ms" whole.Load.p50;
  let halves = Load.even_cuts ~duration:o.seconds ~parts:(int_of_float (o.seconds *. 2.)) in
  let sl = Array.of_list (Load.slices w ~cuts:halves) in
  let q f = quantile (Array.map f sl) 0.5 in
  note "samples" (Json.Int w.Load.ops);
  note "median_half_second"
    (Json.Obj
       [
         ("ops_per_s", Json.Float (q (fun s -> s.Load.rate)));
         ("lat_p50_ms", Json.Float (q (fun s -> s.Load.p50)));
         ("lat_p95_ms", Json.Float (q (fun s -> s.Load.p95)));
         ("lat_p99_ms", Json.Float (q (fun s -> s.Load.p99)));
       ])

(* Daemon-side figures over a traced window: its own latency histogram
   (the metrics op), its CPU, and plan-cache hits. *)
type served = {
  window : Load.window;
  server_p50_ms : float;
  server_p99_ms : float;
  server_cpu_s : float;
  cache_hits : int;
  cache_misses : int;
}

let traced_window o node conns ~duration ~hist ~frame ~check =
  ignore (Load.window conns ~duration:(warmup o) ~frame ~check);
  let h0 = health node and cpu0 = Proc.cpu_s node.Proc.pid in
  let w = Load.window conns ~duration ~frame ~check in
  let h1 = health node and cpu1 = Proc.cpu_s node.Proc.pid in
  let report = Proc.request node "metrics" in
  let q k = Proc.float_field [ "report"; "histograms"; hist; k ] report in
  let d k = Proc.int_field [ "cache"; k ] h1 - Proc.int_field [ "cache"; k ] h0 in
  {
    window = w;
    server_p50_ms = q "p50";
    server_p99_ms = q "p99";
    server_cpu_s = cpu1 -. cpu0;
    cache_hits = d "hits";
    cache_misses = d "misses";
  }

(* Client-side codec: framing a request line and reading one response
   line back out of a buffer, then the byte comparison the bench makes. *)
let client_codec_us pairs =
  Trace.per_call_us pairs (fun (frame, expected) ->
      let b = Buffer.create (String.length frame + 1) in
      Buffer.add_string b frame;
      Buffer.add_char b '\n';
      let wire = expected ^ "\n" in
      let line = String.sub wire 0 (String.index wire '\n') in
      ignore (Buffer.length b + Bool.to_int (String.equal line expected)))

let deployment_metrics (s : served) ~codec_us =
  let ops = float s.window.Load.ops in
  let p50 = quantile s.window.Load.lat_ms 0.5 in
  metric "server.op_p50_ms" "ms" s.server_p50_ms;
  metric "server.op_p99_ms" "ms" s.server_p99_ms;
  metric "server.cpu_ms_per_op" "ms" (s.server_cpu_s *. 1000. /. ops);
  metric "client.cpu_ms_per_op" "ms" (s.window.Load.cpu_s *. 1000. /. ops);
  metric "client.codec_us" "us" codec_us;
  metric "server.residual_us" "us" (((p50 -. s.server_p50_ms) *. 1000.) -. codec_us);
  metric "trace.client_p50_ms" "ms" p50;
  metric "trace.client_p95_ms" "ms" (quantile s.window.Load.lat_ms 0.95);
  metric "trace.client_p99_ms" "ms" (quantile s.window.Load.lat_ms 0.99);
  let looked = s.cache_hits + s.cache_misses in
  metric "server.cache_hit_ratio" "ratio"
    (if looked = 0 then 0. else float s.cache_hits /. float looked)

(* ---- the traced run's in-process layers ------------------------------ *)

(* The largest gap, as a share of the traced window's client p50,
   between the daemon's own op p50 and the in-process time of the same
   span that the traced run accepts; a larger gap fails the run. *)
let reconcile_share = 0.25

(* Replays [reads] (bounded by a time budget) then [writes] then
   [after] through Trace.replay and Server.exec, refusing the layer
   numbers on any byte difference; then has a follower catch up on the
   writes, and runs the probes. *)
let layer_metrics o (files : Scenario.files) sc ~primary ~reads ~writes ~after =
  let b, session = in_process ~cache:0 files sc in
  let c, _ = in_process ~cache:0 files sc in
  let merged, views = Server.For_testing.with_state b (fun m v -> (m, v)) in
  let plog_path = path o "trace-repl.journal" in
  rm_rf plog_path;
  let st =
    { Trace.session; merged; views; plog = Replicate.Log.create ~persist:plog_path () }
  in
  let rid = ref 0 in
  let kinds = Hashtbl.create 1024 and ops = Hashtbl.create 1024 and exec_us = Hashtbl.create 1024 in
  let values = ref [] and rows = ref [] and bytes = ref [] in
  let refused = ref 0 in
  let run kind frame =
    let r = Trace.replay st ~rid:!rid frame in
    let dt, got = timed (fun () -> Server.exec c frame) in
    Hashtbl.replace kinds !rid kind;
    Hashtbl.replace ops !rid r.Trace.op;
    Hashtbl.replace exec_us !rid (dt *. 1e6);
    if kind = `Read then begin
      if List.length !values < 200 then values := r.Trace.value :: !values;
      rows := float r.Trace.rows :: !rows;
      bytes := float (String.length r.Trace.line) :: !bytes
    end;
    let same = String.equal got r.Trace.line && is_ok got in
    if not same then incr refused;
    outcome same (fun () ->
        Printf.sprintf "layer replay of %s gave %s, Server.exec gave %s" frame r.Trace.line got);
    incr rid
  in
  let budget = now () +. Float.max 1. (o.seconds *. 0.2) in
  List.iteri (fun k f -> if k < 20 || now () < budget then run `Read f) reads;
  List.iter (run `Write) writes;
  List.iter (run `Read) after;
  (* the follower tail catching up on [c]'s log of the writes, checked
     by reading every written key back from both nodes *)
  let f, _ = in_process ~cache:0 files sc in
  let catchup_s, applied = Trace.follower_catchup ~leader:c ~follower:f in
  List.iter
    (fun frame ->
      let want = Server.exec c frame and got = Server.exec f frame in
      outcome
        (String.equal got want && is_ok got)
        (fun () -> Printf.sprintf "follower read %s as %s, leader %s" frame got want))
    after;
  List.iter Server.stop [ b; c; f ];
  let appended = List.length writes in
  Replicate.Log.close st.Trace.plog;
  note "layer_replay"
    (Json.Obj
       [ ("ops", Json.Int !rid); ("refused", Json.Int !refused); ("follower_frames", Json.Int applied) ]);
  let self = Trace.self_times () in
  let self_us r name = Option.value ~default:0. (Hashtbl.find_opt self (r, name)) in
  let of_kind kind = Hashtbl.fold (fun r k acc -> if k = kind then r :: acc else acc) kinds [] in
  let layer kind names =
    median_l
      (List.filter_map
         (fun r ->
           if List.exists (fun n -> Hashtbl.mem self (r, n)) names then
             Some (List.fold_left (fun acc n -> acc +. self_us r n) 0. names)
           else None)
         (of_kind kind))
  in
  let layers =
    [ "wire.decode"; "query.parse"; "query.rewrite"; "view.read"; "query.eval";
      "query.update_apply"; "view.notify"; "wire.render"; "wire.to_string" ]
  in
  let layer_sum r = List.fold_left (fun acc n -> acc +. self_us r n) 0. layers in
  let rids = of_kind primary in
  let exec r = Hashtbl.find exec_us r in
  List.iter
    (fun (n, names) -> metric n "us" (layer primary names))
    [
      ("wire.decode_us", [ "wire.decode" ]); ("query.parse_us", [ "query.parse" ]);
      ("query.rewrite_us", [ "query.rewrite" ]); ("wire.render_us", [ "wire.render"; "wire.to_string" ]);
    ];
  metric "query.eval_us" "us" (layer `Read [ "query.eval" ]);
  metric "view.read_us" "us" (layer `Read [ "view.read" ]);
  metric "query.rows_per_op" "count" (mean (Array.of_list !rows));
  metric "wire.resp_bytes" "bytes" (mean (Array.of_list !bytes));
  metric "query.update_apply_us" "us" (layer `Write [ "query.update_apply" ]);
  metric "view.notify_us" "us" (layer `Write [ "view.notify" ]);
  let append_us = layer `Write [ "replicate.log_append" ] in
  metric "replicate.log_append_us" "us" append_us;
  metric "replicate.bytes_per_write" "bytes"
    (if appended = 0 then 0. else float (file_size plog_path) /. float appended);
  let follower_apply_us = catchup_s *. 1e6 /. float (max 1 applied) in
  metric "replicate.follower_apply_us" "us" follower_apply_us;
  metric "server.exec_us" "us" (median_l (List.map exec rids));
  metric "server.dispatch_us" "us" (median_l (List.map (fun r -> exec r -. layer_sum r) rids));
  metric "trace.layer_sum_us" "us" (median_l (List.map layer_sum rids));
  Trace.write_spans (path o "spans.jsonl");
  (* codecs on the same response values *)
  let vs = List.rev !values in
  let texts = List.map Json.to_string vs in
  let bins = List.map (Server.Wire.encode_bin Server.Wire.Response) vs in
  metric "wire.json_encode_us" "us" (Trace.per_call_us vs Json.to_string);
  metric "wire.json_decode_us" "us" (Trace.per_call_us texts Json.of_string);
  metric "wire.bin_encode_us" "us"
    (Trace.per_call_us vs (Server.Wire.encode_bin Server.Wire.Response));
  metric "wire.bin_decode_us" "us" (Trace.per_call_us bins Server.Wire.decode_bin);
  metric "par.handoff_us" "us" (Trace.par_handoff_us ~jobs:2);
  let pull, ack = Trace.wake_probe ~reps:40 in
  metric "replicate.pull_wake_us" "us" pull;
  metric "replicate.ack_wake_us" "us" ack;
  let mem = Replicate.Log.create () in
  let append_mem_us = Trace.per_call_us writes (fun f -> Replicate.Log.append mem f) in
  metric "replicate.log_append_mem_us" "us" append_mem_us;
  (* compaction: every 100 journaled writes, in process *)
  let jdir = path o "trace-compact" in
  rm_rf jdir;
  let d, _ = in_process ~journal:jdir ~compact_every:100 files sc in
  let times = List.map (fun f -> fst (timed (fun () -> ignore (Server.exec d f))) *. 1e3) writes in
  Server.stop d;
  let compacting = List.filteri (fun i _ -> (i + 1) mod 100 = 0) times in
  metric "replicate.compact_ms" "ms"
    (if compacting = [] then 0.
     else mean (Array.of_list compacting) -. median_l times);
  (* set-up layers *)
  let schemas = Ddl.Parser.schemas_of_file files.Scenario.ddl in
  metric "ddl.parse_ms" "ms"
    (1e3 *. median_time (fun () -> Ddl.Parser.schemas_of_file files.Scenario.ddl));
  metric "instance.load_ms" "ms"
    (1e3 *. median_time (fun () -> Instance.Loader.load_file ~schemas files.Scenario.data));
  let stores = Instance.Loader.load_file ~schemas files.Scenario.data in
  let result = sc.Scenario.result in
  metric "query.migrate_ms" "ms"
    (1e3
    *. median_time (fun () ->
           Query.Migrate.run result.Integrate.Result.mapping
             ~integrated:result.Integrate.Result.schema stores));
  let ws0 = List.fold_left (fun ws s -> Integrate.Workspace.add_schema s ws) Integrate.Workspace.empty schemas in
  Obs.enable ();
  Obs.reset ();
  let eq, asr_, rank, ws = Trace.session_pass ws0 sc.Scenario.directives in
  let derived = Obs.Counter.value (Obs.Counter.make "assertions.derived") in
  Obs.disable ();
  let asserted =
    List.length
      (List.filter
         (function Integrate.Script.Equiv _ | Integrate.Script.Rename _ -> false | _ -> true)
         sc.Scenario.directives)
  in
  metric "integrate.equiv_us" "us" eq;
  metric "integrate.assert_us" "us" asr_;
  metric "integrate.rank_us" "us" rank;
  metric "integrate.derived_per_asserted" "ratio"
    (if asserted = 0 then 0. else float derived /. float asserted);
  metric "integrate.integrate_ms" "ms"
    (1e3 *. median_time (fun () -> Integrate.Workspace.integrate ~name:"G" ws));
  (* Reconciliation.  Client p50 = daemon op p50 + client codec +
     residual holds by construction.  What can fail is the daemon's op
     p50 against the in-process time of the same span: the daemon times
     an op from admission to its response value, so its request decode
     and the printing of the response (wire.to_string) fall outside.
     The matching in-process span is Server.exec less those two, taken
     over the ops of the histogram's kind; for writes it adds the
     replicated path the daemon waits for: the log's fsync (persisted
     minus in-memory append), the follower's pull wake, its apply and
     the ack wake. *)
  let m name =
    match List.find_opt (fun (n, _, _) -> n = name) !metrics with
    | Some (_, v, _) -> v
    | None -> 0.
  in
  let hist_op = match primary with `Read -> "query" | `Write -> "update" in
  let matched =
    median_l
      (List.filter_map
         (fun r ->
           if Hashtbl.find ops r = hist_op then
             Some (exec r -. self_us r "wire.decode" -. self_us r "wire.to_string")
           else None)
         rids)
    +.
    match primary with
    | `Read -> 0.
    | `Write -> append_us -. append_mem_us +. pull +. follower_apply_us +. ack
  in
  let gap = Float.abs ((m "server.op_p50_ms" *. 1e3) -. matched) in
  metric "trace.unreconciled_us" "us" gap;
  let client_us = m "trace.client_p50_ms" *. 1e3 in
  outcome
    (gap <= reconcile_share *. client_us)
    (fun () ->
      Printf.sprintf
        "daemon op p50 %.1f us and its in-process span %.1f us differ by more than %.0f%% of \
         the client p50 %.1f us"
        (m "server.op_p50_ms" *. 1e3) matched (reconcile_share *. 100.) client_us)

let overhead ~untraced ~traced =
  metric "trace.ops_per_s" "1/s" traced;
  metric "trace.overhead_frac" "ratio" (1. -. (traced /. untraced))

(* ---- the replicated write path ------------------------------------ *)

(* A leader started with --journal, --ack-replicas 1 and --compact-every
   1000, plus two --follow followers, serving [sc]'s federation; the
   keyed write stream of Decks.writes, and how every acknowledged write
   is checked. *)
type cluster = { leader : Proc.node; followers : Proc.node list; dir : string }

type repl_rig = {
  leader_args : string -> string list;  (** on a journal dir, no --view *)
  cluster : traced:bool -> unit -> cluster;
  w : Decks.keyed array;
  frame : conn:int -> int -> string;
  check : conn:int -> int -> string -> string -> bool;
  responses : (int, string) Hashtbl.t array;  (** per connection, by op index *)
  connect : Proc.node -> Load.conn list;
  verify_writes : Load.conn list -> (string * string) list;
  read_back : (string * string) list -> string * Proc.node -> unit;
  catch_up : cluster -> float;
}

let repl_rig o sc files =
  let w = Decks.writes ~seed:o.seed sc in
  let views = Decks.view_flags sc in
  let leader_args ?report ~views dir =
    node_args ~journal:dir ?report ~views ~jobs:2 ~ack:1 ~compact:1000 files
  in
  let follower_args ?report follow =
    node_args ~follow ?report ~views ~jobs:1 ~ack:0 ~compact:0 files
  in
  let strings l = Json.List (List.map (fun a -> Json.String a) l) in
  note "repl_daemon_args"
    (Json.Obj
       [
         ("leader", strings (leader_args ~views "JOURNAL_DIR"));
         ("follower", strings (follower_args "LEADER_ADDR"));
       ]);
  (* a leader on a fresh journal dir plus two followers, up and attached *)
  let clusters = ref 0 in
  let cluster ~traced () =
    incr clusters;
    let dir = path o (Printf.sprintf "journal-%d" !clusters) in
    rm_rf dir;
    let report name =
      if traced then Some (path o (Printf.sprintf "%s-%d-metrics.json" name !clusters))
      else None
    in
    let leader = start_node o (leader_args ?report:(report "leader") ~views dir) in
    let follow = Printf.sprintf "127.0.0.1:%d" leader.Proc.port in
    let followers =
      List.init 2 (fun i ->
          incr launches;
          Proc.launch ~exe:o.exe
            ~log:(path o (Printf.sprintf "node-%d.log" !launches))
            (follower_args ?report:(report (Printf.sprintf "follower%d" i)) follow))
      |> List.map Proc.ready
    in
    Proc.eventually "followers to attach" (fun () ->
        match Json.member "followers" (Proc.request leader "repl_status") with
        | Some (Json.List l) -> List.length l >= 2
        | _ -> false);
    { leader; followers; dir }
  in
  let responses = [| Hashtbl.create 4096; Hashtbl.create 4096 |] in
  let frame ~conn i = Decks.write_frame w ~conn i in
  let check ~conn i _ r =
    Hashtbl.replace responses.(conn) i r;
    true
  in
  (* Every acknowledged write, replayed on a fresh in-process node in an
     interleaving of the two connections' orders, must answer the same
     bytes (keys are disjoint per connection, so any interleaving
     does).  Returns every written key's read-back frame with the
     reference answer. *)
  let verify_writes (conns : Load.conn list) =
    let counts = Array.of_list (List.map (fun (c : Load.conn) -> c.Load.cursor) conns) in
    let r, _ = in_process files sc in
    for i = 0 to Array.fold_left max 0 counts - 1 do
      Array.iteri
        (fun conn n ->
          if i < n then
            let f = frame ~conn i in
            let want = Server.exec r f in
            match Hashtbl.find_opt responses.(conn) i with
            | None -> () (* a transport failure, already counted *)
            | Some got ->
                outcome ~counted:true
                  (String.equal got want && is_ok got)
                  (fun () -> Printf.sprintf "write %s answered %s, reference %s" f got want))
        counts
    done;
    let backs =
      List.concat
        (List.mapi (fun conn n -> List.init ((n + 2) / 3) (Decks.readback w ~conn)) (Array.to_list counts))
    in
    let want = List.map (fun f -> (f, Server.exec r f)) backs in
    Server.stop r;
    want
  in
  let read_back want (label, node) =
    let c = Server.Client.connect ~timeout_ms:60_000 (Proc.addr node) in
    List.iter
      (fun (f, want) ->
        let got = Server.Client.roundtrip c f in
        outcome (String.equal got want && is_ok got) (fun () ->
            Printf.sprintf "%s read back %s as %s, reference %s" label f got want))
      want;
    Server.Client.close c
  in
  let catch_up cl =
    let seq = Proc.int_field [ "repl_seq" ] (health cl.leader) in
    let t0 = now () in
    List.iter
      (fun f ->
        Proc.eventually "follower catch-up" (fun () ->
            Proc.int_field [ "applied_seq" ] (health f) >= seq))
      cl.followers;
    (now () -. t0) *. 1e3
  in
  let connect leader =
    Array.iter Hashtbl.reset responses;
    Load.connect (Proc.addr leader) 2
  in
  {
    leader_args = leader_args ~views:[];
    cluster;
    w;
    frame;
    check;
    responses;
    connect;
    verify_writes;
    read_back;
    catch_up;
  }

let kill_cluster cl = List.iter Proc.kill9 (cl.leader :: cl.followers)

let nodes cl =
  ("leader", cl.leader) :: List.mapi (fun i f -> (Printf.sprintf "follower%d" i, f)) cl.followers

(* The replicated write path with --metrics daemons, for [duration]
   after a warm-up: the client's write p50, follower catch-up after the
   last write, compactions and follower CPU.  Every write is
   checked and read back from all three nodes. *)
let replicated_window o rr ~duration =
  let cl = rr.cluster ~traced:true () in
  let conns = rr.connect cl.leader in
  let fcpu () = List.fold_left (fun acc f -> acc +. Proc.cpu_s f.Proc.pid) 0. cl.followers in
  let f0 = fcpu () in
  let s =
    traced_window o cl.leader conns ~duration ~hist:"server.update_ms" ~frame:rr.frame
      ~check:rr.check
  in
  let f1 = fcpu () in
  Load.close conns;
  tally conns;
  let catchup_ms = rr.catch_up cl in
  let compactions = Proc.int_field [ "snapshot_seq" ] (health cl.leader) / 1000 in
  let want = rr.verify_writes conns in
  List.iter (rr.read_back want) (nodes cl);
  List.iter Proc.stop (cl.followers @ [ cl.leader ]);
  metric "replicate.write_p50_ms" "ms" (quantile s.window.Load.lat_ms 0.5);
  metric "replicate.compactions" "count" (float compactions);
  metric "replicate.catchup_ms" "ms" catchup_ms;
  metric "replicate.follower_cpu_ms_per_op" "ms"
    ((f1 -. f0) *. 1000. /. float (List.length cl.followers) /. float s.window.Load.ops);
  s

(* ---- read-small and read-scan ----------------------------------------- *)

(* A read deck with its reference answers (in-process Server.exec on
   the same files), and how to start a daemon that serves it. *)
type rig = {
  deck : string array;
  expected : (string, string) Hashtbl.t;
  frame : conn:int -> int -> string;
  check : conn:int -> int -> string -> string -> bool;
  up : string option -> unit -> Proc.node;  (** [--metrics] report path *)
}

let read_rig o sc files deck =
  let expected = Hashtbl.create 1024 in
  (let r, _ = in_process files sc in
   Array.iter
     (fun f -> if not (Hashtbl.mem expected f) then Hashtbl.add expected f (Server.exec r f))
     deck;
   Server.stop r);
  Hashtbl.iter
    (fun f r -> if not (is_ok r) then fail "the reference answers %s with %s" f r)
    expected;
  note "distinct_frames" (Json.Int (Hashtbl.length expected));
  let n = Array.length deck in
  let args report =
    node_args ?report ~views:(Decks.view_flags sc) ~jobs:2 ~ack:0 ~compact:0 files
  in
  note "daemon_args" (Json.List (List.map (fun a -> Json.String a) (args None)));
  {
    deck;
    expected;
    frame = (fun ~conn i -> deck.(((conn * n / 2) + i) mod n));
    check = (fun ~conn:_ _ f r -> String.equal r (Hashtbl.find expected f));
    up =
      (fun report () ->
        let node = start_node o (args report) in
        ignore (health node);
        node);
  }

(* Warm-up, then the timed window, on two fresh connections. *)
let drive_reads o rig node ~duration =
  let conns = Load.connect (Proc.addr node) 2 in
  ignore (Load.window conns ~duration:(warmup o) ~frame:rig.frame ~check:rig.check);
  let w = Load.window conns ~duration ~frame:rig.frame ~check:rig.check in
  Load.close conns;
  tally conns;
  w

(* A --metrics daemon serving the deck for [duration]: the deployment
   metrics of the traced run. *)
let traced_reads o rig ~duration =
  let node = rig.up (Some (path o "daemon-metrics.json")) () in
  let conns = Load.connect (Proc.addr node) 2 in
  let s =
    traced_window o node conns ~duration ~hist:"server.query_ms" ~frame:rig.frame
      ~check:rig.check
  in
  Load.close conns;
  tally conns;
  Proc.stop node;
  let sample = Array.to_list (Array.sub rig.deck 0 (min (Array.length rig.deck) 2000)) in
  deployment_metrics s
    ~codec_us:(client_codec_us (List.map (fun f -> (f, Hashtbl.find rig.expected f)) sample));
  (s, sample)

let serve_reads o kind =
  let sc, files = inputs o kind in
  let rig =
    read_rig o sc files
      (match kind with
      | `Small -> Decks.read_small ~seed:o.seed sc
      | `Scan -> Decks.read_scan ~seed:o.seed sc ~n:1024)
  in
  if not o.trace then begin
    let setup_s, node = median_setup ~discard:Proc.kill9 (rig.up None) in
    let w = drive_reads o rig node ~duration:o.seconds in
    Proc.stop node;
    metric "setup_s" "s" setup_s;
    latency_metrics o w
  end
  else begin
    let node = rig.up None () in
    let plain = drive_reads o rig node ~duration:(o.seconds /. 2.) in
    Proc.stop node;
    let s, sample = traced_reads o rig ~duration:(o.seconds /. 2.) in
    overhead ~untraced:(Load.ops_per_s plain) ~traced:(Load.ops_per_s s.window);
    ignore (replicated_window o (repl_rig o sc files) ~duration:(o.seconds /. 4.));
    let w = Decks.writes ~seed:o.seed sc in
    layer_metrics o files sc ~primary:`Read ~reads:sample
      ~writes:(List.init 300 (Decks.write_frame w ~conn:0))
      ~after:(List.init 100 (Decks.readback w ~conn:0))
  end

(* ---- write-repl ------------------------------------------------------- *)

let write_repl o =
  let sc, files = inputs o `Small in
  let rr = repl_rig o sc files in
  let frame = rr.frame and check = rr.check in
  if not o.trace then begin
    let setup_s, cl = median_setup ~discard:kill_cluster (rr.cluster ~traced:false) in
    let conns = rr.connect cl.leader in
    ignore (Load.window conns ~duration:(warmup o) ~frame ~check);
    let win = Load.window conns ~duration:o.seconds ~frame ~check in
    Load.close conns;
    tally conns;
    ignore (rr.catch_up cl);
    note "compactions" (Json.Int (Proc.int_field [ "snapshot_seq" ] (health cl.leader) / 1000));
    let want = rr.verify_writes conns in
    List.iter (rr.read_back want) (nodes cl);
    (* restart: SIGKILL the leader — a process kill, not a power loss:
       the page cache survives — respawn it on the same journal dir
       (its views come back from the journal), first read answered *)
    let first, first_want = List.hd want in
    let leader = ref (Some cl.leader) and restarts = ref [] in
    for _ = 1 to 3 do
      Option.iter
        (fun l ->
          let t0 = now () in
          Proc.kill9 l;
          match start_node o (rr.leader_args cl.dir) with
          | exception Failure msg ->
              leader := None;
              outcome false (fun () -> "leader restart: " ^ msg)
          | l ->
              leader := Some l;
              let c = Server.Client.connect (Proc.addr l) in
              let r = Server.Client.roundtrip c first in
              restarts := (now () -. t0) :: !restarts;
              Server.Client.close c;
              outcome (String.equal r first_want) (fun () -> "restarted leader read: " ^ r))
        !leader
    done;
    (match !leader with
    | Some l ->
        rr.read_back want ("restarted leader", l);
        Proc.kill9 l
    | None -> List.iter (fun _ -> outcome false (fun () -> "no restarted leader")) want);
    List.iter Proc.kill9 cl.followers;
    metric "setup_s" "s" setup_s;
    latency_metrics o win;
    if !restarts <> [] then metric "restart_s" "s" (median_l !restarts)
  end
  else begin
    let cl = rr.cluster ~traced:false () in
    let conns = rr.connect cl.leader in
    ignore (Load.window conns ~duration:(warmup o) ~frame ~check);
    let plain = Load.window conns ~duration:(o.seconds /. 2.) ~frame ~check in
    Load.close conns;
    tally conns;
    ignore (rr.verify_writes conns);
    kill_cluster cl;
    let s = replicated_window o rr ~duration:(o.seconds /. 2.) in
    overhead ~untraced:(Load.ops_per_s plain) ~traced:(Load.ops_per_s s.window);
    let sample = List.init 300 (frame ~conn:0) in
    deployment_metrics s
      ~codec_us:
        (client_codec_us
           (List.mapi
              (fun i f -> (f, Option.value ~default:"" (Hashtbl.find_opt rr.responses.(0) i)))
              sample));
    layer_metrics o files sc ~primary:`Write ~reads:[]
      ~writes:sample ~after:(List.init 100 (Decks.readback rr.w ~conn:0))
  end

(* ---- integrate-session ------------------------------------------------ *)

let result_text r = Format.asprintf "%a" Integrate.Result.pp r

let integrate_session o =
  let sc, files = inputs o `Session in
  let load () =
    let schemas = Ddl.Parser.schemas_of_file files.Scenario.ddl in
    let directives = Integrate.Script.parse_file files.Scenario.script in
    ( List.fold_left (fun ws s -> Integrate.Workspace.add_schema s ws) Integrate.Workspace.empty schemas,
      directives )
  in
  let setup_s = repeat_median (fun () -> fst (timed load)) in
  let ws0, directives = load () in
  let steps = Array.of_list directives in
  let n = Array.length steps in
  if n = 0 then fail "the session has no directives";
  let want = result_text sc.Scenario.result in
  outcome (Scenario.missed_true_pairs sc = []) (fun () -> "the scenario missed true pairs");
  (* a step: apply one directive, then rank that pair (the DDA's next
     screen); sessions restart from the parsed workspace *)
  let pos = ref 0 and ws = ref ws0 and finished = ref None in
  let session_ends = ref [] and win_t0 = ref 0. in
  let step () =
    let d = steps.(!pos) in
    (match Integrate.Script.apply_one d !ws with
    | Ok w -> ws := w
    | Error e -> outcome ~counted:true false (fun () -> Integrate.Script.apply_error_to_string e));
    let a, b = Decks.directive_pair d in
    (try ignore (Integrate.Workspace.ranked_pairs a b !ws) with Not_found -> ());
    incr pos;
    if !pos = n then begin
      session_ends := (now () -. !win_t0) :: !session_ends;
      if Option.is_none !finished then finished := Some !ws;
      pos := 0;
      ws := ws0
    end
  in
  let window duration =
    let lat = Fbuf.create () and fin = Fbuf.create () in
    let cpu0 = Proc.self_cpu_s () in
    let t0 = now () in
    win_t0 := t0;
    session_ends := [];
    let deadline = t0 +. duration in
    while now () < deadline do
      let ts = now () in
      step ();
      let te = now () in
      Fbuf.add lat ((te -. ts) *. 1000.);
      Fbuf.add fin (te -. t0)
    done;
    let lat_ms = Fbuf.to_array lat in
    attempted := !attempted + Array.length lat_ms;
    {
      Load.ops = Array.length lat_ms;
      wall_s = now () -. t0;
      lat_ms;
      done_s = Fbuf.to_array fin;
      cpu_s = Proc.self_cpu_s () -. cpu0;
    }
  in
  ignore (window (warmup o));
  let final () =
    match !finished with
    | Some ws -> ws
    | None -> (
        match Integrate.Script.apply directives ws0 with
        | Ok ws -> ws
        | Error e -> fail "session: %s" (Integrate.Script.apply_error_to_string e))
  in
  let check what ws =
    outcome
      (String.equal (result_text (Integrate.Workspace.integrate ~name:"G" ws)) want)
      (fun () -> what ^ " integrates differently from the scenario")
  in
  if not o.trace then begin
    let w = window o.seconds in
    (* Steps differ in cost by three orders of magnitude and repeat in
       session order, so the slices are whole sessions: a time slice
       would weigh cheap and expensive stretches by where it falls. *)
    let cuts = match List.rev !session_ends with _ :: _ :: _ as l -> Some l | _ -> None in
    check "the replayed session" (final ());
    metric "setup_s" "s" setup_s;
    latency_metrics ?cuts o w
  end
  else begin
    let plain = window (o.seconds /. 2.) in
    Obs.enable ();
    let traced = window (o.seconds /. 2.) in
    Obs.disable ();
    check "the replayed session" (final ());
    overhead ~untraced:(Load.ops_per_s plain) ~traced:(Load.ops_per_s traced);
    (* the deployment metrics: a daemon serving this federation *)
    let rig = read_rig o sc files (Decks.read_small ~seed:o.seed sc) in
    let _, sample = traced_reads o rig ~duration:(o.seconds /. 4.) in
    ignore (replicated_window o (repl_rig o sc files) ~duration:(o.seconds /. 4.));
    let w = Decks.writes ~seed:o.seed sc in
    layer_metrics o files sc ~primary:`Read ~reads:sample
      ~writes:(List.init 300 (Decks.write_frame w ~conn:0))
      ~after:(List.init 100 (Decks.readback w ~conn:0))
  end

(* ---- main ---------------------------------------------------------------- *)

let workloads =
  [
    ("read-small", fun o -> serve_reads o `Small);
    ("read-scan", fun o -> serve_reads o `Scan);
    ("write-repl", write_repl);
    ("integrate-session", integrate_session);
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --serve SIT_SERVE \
     [--work DIR]";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  {
    workload = get "--workload";
    seed = int "--seed";
    seconds = float (int "--seconds");
    trace = int "--trace" = 1;
    exe = get "--serve";
    work = Option.value ~default:".perfbench" (List.assoc_opt "--work" kv);
  }

let nproc () =
  match read_file "/proc/cpuinfo" with
  | text ->
      List.length
        (List.filter
           (fun l -> String.starts_with ~prefix:"processor" l)
           (String.split_on_char '\n' text))
  | exception Sys_error _ -> Domain.recommended_domain_count ()

let () =
  let o = parse_args () in
  let run =
    match List.assoc_opt o.workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ o.workload);
        exit 2
  in
  rm_rf o.work;
  mkdir_p o.work;
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             Proc.kill_all ();
             exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  (try run o
   with e ->
     Proc.kill_all ();
     prerr_endline ("perfbench: " ^ Printexc.to_string e);
     exit 2);
  note "run"
    (Json.Obj
       [
         ("workload", Json.String o.workload);
         ("seed", Json.Int o.seed);
         ("seconds", Json.Float o.seconds);
         ("trace", Json.Bool o.trace);
         ("nproc", Json.Int (nproc ()));
         ("ocaml", Json.String Sys.ocaml_version);
       ]);
  let ms = List.rev !metrics in
  print_endline (Json.to_string (Json.Obj (List.rev !provenance)));
  List.iter (fun (n, v, u) -> Printf.printf "%-36s %14.4f %s\n" n v u) ms;
  Printf.printf "%-36s %14.6f ratio\n" "error_frac"
    (float !failed /. float (max 1 !attempted));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!failed = 0));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, v, u) ->
                     (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
                   ms) );
          ]));
  if !failed > 0 then exit 1
