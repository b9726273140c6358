(* The traced run's in-process half: spans around each layer's public
   functions, a layer-by-layer replay of a workload's frames checked
   byte for byte against Server.exec, and isolated probes of the wire
   codecs, the Par hand-off, the replication log and the integration
   session. *)

open Util
module Json = Obs.Json
module Wire = Server.Wire

(* ---- spans ---------------------------------------------------------- *)

type span = { sid : int; rid : int; parent : int; name : string; t0 : float; t1 : float }

let spans : span list ref = ref []
let next_sid = ref 0

(* Records [f ()] as a span of request [rid] under [parent]; the span's
   own id is passed to [f] so nested calls can name it. *)
let span ~rid ~parent name f =
  let sid = !next_sid in
  incr next_sid;
  let t0 = now () in
  let r = f sid in
  spans := { sid; rid; parent; name; t0; t1 = now () } :: !spans;
  r

(* Self time per (request, layer) in microseconds: a span's duration
   minus the time its children cover, summed over a request's spans of
   the same name. *)
let self_times () =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      Hashtbl.replace children s.parent
        (d +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    !spans;
  let by = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let self =
        (s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt children s.sid)) *. 1e6
      in
      let k = (s.rid, s.name) in
      Hashtbl.replace by k (self +. Option.value ~default:0. (Hashtbl.find_opt by k)))
    !spans;
  by

let write_spans path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"rid\":%d,\"parent\":%d,\"name\":%S,\"start_us\":%.3f,\"end_us\":%.3f}\n"
            s.sid s.rid s.parent s.name (s.t0 *. 1e6) (s.t1 *. 1e6))
        (List.rev !spans))

(* ---- layer-by-layer replay ------------------------------------------ *)

type state = {
  session : Server.session;
  mutable merged : Instance.Store.t;
  views : Server.View.t;
  plog : Replicate.Log.t;  (** persisted: the write path's append *)
}

let schema_named st name =
  List.find_opt
    (fun s -> String.equal (Ecr.Name.to_string (Ecr.Schema.name s)) name)
    st.session.Server.schemas

let mapping st = st.session.Server.result.Integrate.Result.mapping
let rows_payload rows () =
  [ ("rows", Wire.rows_to_json rows); ("count", Json.Int (List.length rows)) ]

type replayed = {
  op : string;
  line : string;  (** the response bytes *)
  value : Json.t;  (** the response value, for the codec probes *)
  rows : int;
}

(* One frame through the same public functions Server.exec reaches,
   without its queue, pool, cache or locks.  Each branch returns the
   payload as a thunk, so that building the response's JSON
   (rows_to_json, ok_response) falls in the wire.render span; the
   printing of that value, which the daemon does on the connection
   thread outside its op histograms, is its own span, wire.to_string. *)
let replay st ~rid line =
  span ~rid ~parent:(-1) "request" @@ fun root ->
  let sp name f = span ~rid ~parent:root name (fun _ -> f ()) in
  let req =
    match sp "wire.decode" (fun () -> Wire.request_of_line line) with
    | Ok r -> r
    | Error (_, msg) -> fail "frame does not decode: %s" msg
  in
  let view_schema () =
    match Option.map (fun v -> (v, schema_named st v)) req.Wire.view with
    | Some (_, Some vs) -> Some vs
    | Some (v, None) -> fail "unknown view %s" v
    | None -> None
  in
  let payload, rows =
    match (req.Wire.op, req.Wire.view, req.Wire.text) with
    | "query", Some name, None when schema_named st name = None -> (
        match sp "view.read" (fun () -> Server.View.read st.views name st.merged) with
        | Ok (rows, fresh) ->
            ((fun () -> rows_payload rows () @ [ ("fresh", Json.Bool fresh) ]), List.length rows)
        | Error msg -> fail "view read failed: %s" msg)
    | "query", _, Some text -> (
        let q = sp "query.parse" (fun () -> Query.Parser.query_of_string text) in
        match view_schema () with
        | Some vs ->
            let q', back =
              sp "query.rewrite" (fun () -> Query.Rewrite.to_integrated (mapping st) ~view:vs q)
            in
            let raw =
              match sp "view.read" (fun () -> Server.View.lookup_shape st.views q' st.merged) with
              | Some raw -> raw
              | None -> sp "query.eval" (fun () -> Query.Eval.run q' st.merged)
            in
            let rows = sp "query.rewrite" (fun () -> back raw) in
            (rows_payload rows, List.length rows)
        | None ->
            let parts =
              sp "query.rewrite" (fun () ->
                  Query.Rewrite.to_components (mapping st)
                    ~integrated:st.session.Server.result.Integrate.Result.schema q)
            in
            let stores =
              List.map
                (fun (s, store) -> (Ecr.Schema.name s, store))
                st.session.Server.component_stores
            in
            let rows = sp "query.eval" (fun () -> Query.Rewrite.run_components parts ~stores) in
            (rows_payload rows, List.length rows))
    | "rewrite", _, Some text -> (
        let q = sp "query.parse" (fun () -> Query.Parser.query_of_string text) in
        match view_schema () with
        | Some vs ->
            let q', _ =
              sp "query.rewrite" (fun () -> Query.Rewrite.to_integrated (mapping st) ~view:vs q)
            in
            ((fun () -> [ ("query", Json.String (Query.Ast.to_string q')) ]), 0)
        | None ->
            let parts =
              sp "query.rewrite" (fun () ->
                  Query.Rewrite.to_components (mapping st)
                    ~integrated:st.session.Server.result.Integrate.Result.schema q)
            in
            ( (fun () ->
                [
                  ( "components",
                    Json.List
                      (List.map
                         (fun (part : Query.Rewrite.component_query) ->
                           Json.Obj
                             [
                               ( "component",
                                 Json.String (Ecr.Name.to_string part.Query.Rewrite.component) );
                               ("query", Json.String (Query.Ast.to_string part.Query.Rewrite.query));
                             ])
                         parts) );
                ]),
              0 ))
    | "update", Some _, Some text ->
        let vs = Option.get (view_schema ()) in
        let op = sp "query.parse" (fun () -> Query.Parser.update_of_string text) in
        let op' = sp "query.rewrite" (fun () -> Query.Update.to_integrated (mapping st) ~view:vs op) in
        let merged, n = sp "query.update_apply" (fun () -> Query.Update.apply op' st.merged) in
        st.merged <- merged;
        sp "view.notify" (fun () -> Server.View.notify_update st.views op' merged);
        ( (fun () ->
            [ ("translated", Json.String (Query.Update.to_string op')); ("affected", Json.Int n) ]),
          n )
    | op, _, _ -> fail "the replay does not model op %s" op
  in
  let value = sp "wire.render" (fun () -> Wire.ok_response ?id:req.Wire.id (payload ())) in
  let line = sp "wire.to_string" (fun () -> Json.to_string value) in
  if req.Wire.op = "update" then
    ignore
      (sp "replicate.log_append" (fun () ->
           Replicate.Log.append st.plog
             (Wire.request_to_line ?view:req.Wire.view ?text:req.Wire.text req.Wire.op)));
  { op = req.Wire.op; line; value; rows }

(* ---- probes ---------------------------------------------------------- *)

(* Median microseconds of [f x] over a sample. *)
let per_call_us xs f =
  median (Array.of_list (List.map (fun x -> fst (timed (fun () -> f x)) *. 1e6) xs))

(* Par.async + await of an empty task: the hand-off every data request
   pays on its way to the pool. *)
let par_handoff_us ~jobs =
  let pool = Par.create ~jobs in
  Fun.protect
    ~finally:(fun () -> Par.shutdown pool)
    (fun () ->
      let xs = List.init 2000 Fun.id in
      per_call_us xs (fun i -> ignore (Par.await pool (Par.async pool (fun () -> i)))))

(* Wake latency of the replication log's blocking calls, with a second
   thread on the other side: from [append] to a blocked [wait]
   returning, and from the [ack] completing a quorum to [wait_acked]
   returning.  The other side acts 1 to 4.6 ms after the waiter
   blocks, so a polling waiter is sampled across its whole period. *)
let wake_probe ~reps =
  let log = Replicate.Log.create () in
  let stamp = Atomic.make 0. in
  let pull = ref [] and ackw = ref [] in
  for k = 1 to reps do
    let delay = 0.001 +. (float (k mod 10) *. 0.0004) in
    let from = Replicate.Log.seq log + 1 in
    let th =
      Thread.create
        (fun () ->
          Unix.sleepf delay;
          Atomic.set stamp (now ());
          ignore (Replicate.Log.append log "probe"))
        ()
    in
    ignore (Replicate.Log.wait log ~from ~timeout_s:5.);
    pull := (now () -. Atomic.get stamp) *. 1e6 :: !pull;
    Thread.join th;
    let seq = Replicate.Log.seq log in
    let th =
      Thread.create
        (fun () ->
          Unix.sleepf delay;
          Atomic.set stamp (now ());
          Replicate.Log.ack log ~node:"probe" seq)
        ()
    in
    ignore (Replicate.Log.wait_acked log ~seq ~replicas:1 ~timeout_s:5.);
    ackw := (now () -. Atomic.get stamp) *. 1e6 :: !ackw;
    Thread.join th
  done;
  Replicate.Log.close log;
  (median_l !pull, median_l !ackw)

(* The DDA's work per directive: apply it, then rank the pair's
   candidates (the next screen).  Returns medians in microseconds for
   equivalence directives, object/relationship assertions and rankings,
   and the final workspace. *)
let session_pass ws0 directives =
  let eq = ref [] and asr_ = ref [] and rank = ref [] in
  let ws =
    List.fold_left
      (fun ws d ->
        let dt, ws =
          timed (fun () ->
              match Integrate.Script.apply_one d ws with
              | Ok ws -> ws
              | Error e -> fail "directive rejected: %s" (Integrate.Script.apply_error_to_string e))
        in
        (match d with
        | Integrate.Script.Equiv _ -> eq := (dt *. 1e6) :: !eq
        | Integrate.Script.Object_assertion _ | Integrate.Script.Rel_assertion _ ->
            asr_ := (dt *. 1e6) :: !asr_
        | Integrate.Script.Rename _ -> ());
        let a, b = Decks.directive_pair d in
        let dr, _ =
          timed (fun () -> try ignore (Integrate.Workspace.ranked_pairs a b ws) with Not_found -> ())
        in
        rank := (dr *. 1e6) :: !rank;
        ws)
      ws0 directives
  in
  (median_l !eq, median_l !asr_, median_l !rank, ws)

(* The follower tail (Replicate.Follower.run) catching up on [leader]'s
   replication log from seq 1, on a second thread, over Server.exec as
   its transport: the leader answers repl_handshake and repl_pull as the
   daemon does, and each frame is applied to [follower] with Server.exec
   (the daemon applies it with the same op code, minus the queue and
   the pool hand-off).  Returns the wall time until every frame is
   applied, in seconds, and the frames applied. *)
let follower_catchup ~leader ~follower =
  let last =
    match Json.of_string (Server.exec leader (Wire.request_to_line "health")) with
    | Ok v -> (
        match Json.member "repl_seq" v with Some (Json.Int n) -> n | _ -> fail "health has no repl_seq")
    | Error e -> fail "health: %s" e
  in
  let progress = Replicate.Follower.make_progress () in
  let finished = Atomic.make nan in
  let apply seq frame =
    let r = Server.exec follower frame in
    if seq = last then Atomic.set finished (now ());
    if is_ok r then Ok () else Error r
  in
  let t0 = now () in
  let th =
    Thread.create
      (fun () ->
        Replicate.Follower.run ~node:"perfbench-follower" ~connect:ignore ~close:ignore
          ~roundtrip:(fun () line -> Server.exec leader line)
          ~apply ~progress ~wait_ms:20 ())
      ()
  in
  let deadline = t0 +. 60. in
  while Atomic.get progress.Replicate.Follower.applied < last && now () < deadline do
    Unix.sleepf 0.001
  done;
  let dt = Atomic.get finished -. t0 in
  Replicate.Follower.request_stop progress;
  Thread.join th;
  let applied = Atomic.get progress.Replicate.Follower.applied in
  if applied < last then
    fail "the follower applied %d of %d frames (%s)" applied last
      (Replicate.Follower.last_error progress);
  (dt, applied)
