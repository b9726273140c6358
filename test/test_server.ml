(* Tests for the query-serving daemon (lib/server): protocol plumbing,
   concurrency vs. offline equivalence, backpressure, deadlines, drain;
   plus regression tests for this PR's error-path bugfixes (integration
   strategies on degenerate pools, conflict diagnostics, sit_batch
   surviving bad directives). *)

open Ecr
module S = Instance.Store
module V = Instance.Value
module Json = Obs.Json

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* ---- fixtures: the paper's sc1+sc2 session with instances --------- *)

let sc1_store () =
  let st = S.create Workload.Paper.sc1 in
  let student name gpa = S.tuple [ ("Name", V.str name); ("GPA", V.real gpa) ] in
  let st, ann = S.insert (Name.v "Student") (student "Ann" 3.9) st in
  let st, ben = S.insert (Name.v "Student") (student "Ben" 2.5) st in
  let st, cyd = S.insert (Name.v "Student") (student "Cyd" 3.2) st in
  let st, cs = S.insert (Name.v "Department") (S.tuple [ ("Name", V.str "CS") ]) st in
  let st, ee = S.insert (Name.v "Department") (S.tuple [ ("Name", V.str "EE") ]) st in
  let since y = S.tuple [ ("Since", V.date y 9 1) ] in
  let st = S.relate (Name.v "Majors") [ ann; cs ] (since 2020) st in
  let st = S.relate (Name.v "Majors") [ ben; ee ] (since 2021) st in
  let st = S.relate (Name.v "Majors") [ cyd; cs ] (since 2022) st in
  st

let sc2_store () =
  let st = S.create Workload.Paper.sc2 in
  let st, _ =
    S.insert (Name.v "Grad_student")
      (S.tuple
         [
           ("Name", V.str "Ann"); ("GPA", V.real 3.9); ("Support_type", V.str "RA");
         ])
      st
  in
  let st, _ =
    S.insert (Name.v "Faculty")
      (S.tuple [ ("Name", V.str "Dr. Lee"); ("Rank", V.str "Assoc") ])
      st
  in
  st

let session =
  lazy
    (let result = Workload.Paper.integrate_sc1_sc2 () in
     Server.make_session ~result
       ~stores:
         [
           (Workload.Paper.sc1, sc1_store ()); (Workload.Paper.sc2, sc2_store ());
         ]
       ())

let local = Server.Wire.Tcp ("127.0.0.1", 0)

let start_exn cfg =
  match Server.start (Lazy.force session) cfg with
  | Error msg -> Alcotest.fail ("server failed to start: " ^ msg)
  | Ok t -> (
      match Server.port t with
      | Some p -> (t, Server.Wire.Tcp ("127.0.0.1", p))
      | None -> Alcotest.fail "no bound port")

(* Starts a server, runs [f] against its address, always stops it. *)
let with_server ?(jobs = 2) ?(queue = 64) ?deadline_ms ?(cache = 128)
    ?(debug = false) f =
  let t, addr =
    start_exn
      {
        Server.listen = local;
        jobs;
        queue;
        deadline_ms;
        cache;
        debug;
        repl = Server.default_repl;
      }
  in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t addr)

let with_client addr f =
  let c = Server.Client.connect addr in
  Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () -> f c)

(* the workload: view queries on both components plus a global query *)
let view_frames =
  [
    ("sc1", "select Name, GPA from Student where GPA > 3.0");
    ("sc1", "select Name from Department");
    ("sc2", "select Name from Faculty");
    ("sc2", "select Name, GPA from Grad_student");
  ]

let global_frames = [ "select Name from Student"; "select Rank from Faculty" ]

let frames () =
  List.map
    (fun (view, text) -> Server.Wire.request_to_line ~view ~text "query")
    view_frames
  @ List.map (fun text -> Server.Wire.request_to_line ~text "query") global_frames

(* The reference answer, computed offline (no server, single thread)
   through exactly the public query API a non-serving client uses. *)
let offline_response_for ~view ~text =
  let session = Lazy.force session in
  let mapping = session.Server.result.Integrate.Result.mapping in
  let q = Query.Parser.query_of_string text in
  let rows =
    match view with
    | Some view_name ->
        let view =
          List.find
            (fun s -> Name.to_string (Schema.name s) = view_name)
            session.Server.schemas
        in
        let q', back = Query.Rewrite.to_integrated mapping ~view q in
        back (Query.Eval.run q' session.Server.initial_merged)
    | None ->
        Query.Rewrite.run_global mapping
          ~integrated:session.Server.result.Integrate.Result.schema
          ~stores:
            (List.map
               (fun (s, st) -> (Schema.name s, st))
               session.Server.component_stores)
          q
  in
  Server.Wire.ok_line
    [
      ("rows", Server.Wire.rows_to_json rows);
      ("count", Json.Int (List.length rows));
    ]

let server_tests =
  [
    tc "responses are byte-identical to offline evaluation" (fun () ->
        with_server (fun _t addr ->
            with_client addr (fun c ->
                List.iter
                  (fun (view, text) ->
                    let got =
                      Server.Client.roundtrip c
                        (Server.Wire.request_to_line ~view ~text "query")
                    in
                    check Alcotest.string text
                      (offline_response_for ~view:(Some view) ~text)
                      got)
                  view_frames;
                List.iter
                  (fun text ->
                    let got =
                      Server.Client.roundtrip c
                        (Server.Wire.request_to_line ~text "query")
                    in
                    check Alcotest.string text
                      (offline_response_for ~view:None ~text)
                      got)
                  global_frames)));
    tc "concurrent load: 4 connections, 1k requests, zero divergence"
      (fun () ->
        with_server ~jobs:4 (fun t addr ->
            let pool = Array.of_list (frames ()) in
            let load = Array.init 1200 (fun i -> pool.(i mod Array.length pool)) in
            let stats = Server.Client.drive ~addr ~conns:4 ~frames:load () in
            check Alcotest.int "all answered" 1200 stats.Server.Client.sent;
            check Alcotest.int "all ok" 1200 stats.Server.Client.ok;
            check Alcotest.int "no divergent responses" 0
              stats.Server.Client.mismatches;
            (* every response must equal the offline reference, not just
               agree with the other connections *)
            with_client addr (fun c ->
                List.iter
                  (fun (view, text) ->
                    check Alcotest.string text
                      (offline_response_for ~view:(Some view) ~text)
                      (Server.Client.roundtrip c
                         (Server.Wire.request_to_line ~view ~text "query")))
                  view_frames);
            let s = Server.stats t in
            check Alcotest.bool "plan cache was hit" true
              (s.Server.cache_hits > 0);
            check Alcotest.bool "plan cache misses bounded by shapes" true
              (s.Server.cache_misses <= List.length (frames ()))));
    tc "malformed and failing frames never kill the daemon" (fun () ->
        with_server (fun _t addr ->
            with_client addr (fun c ->
                let code line =
                  let resp = Server.Client.roundtrip c line in
                  match Json.of_string resp with
                  | Ok v ->
                      check Alcotest.bool line false (Server.Client.is_ok v);
                      Option.value ~default:"?" (Server.Client.error_code v)
                  | Error e -> Alcotest.fail ("unparseable response: " ^ e)
                in
                check Alcotest.string "garbage" "bad_frame" (code "garbage");
                check Alcotest.string "non-object" "bad_frame" (code "[1,2]");
                check Alcotest.string "no op" "bad_request" (code "{}");
                check Alcotest.string "unknown op" "unknown_op"
                  (code {|{"op":"zap"}|});
                check Alcotest.string "missing q" "bad_request"
                  (code {|{"op":"query","view":"sc1"}|});
                check Alcotest.string "unknown view" "unknown_view"
                  (code {|{"op":"query","view":"sc9","q":"select Name from Student"}|});
                check Alcotest.string "syntax error" "parse_error"
                  (code {|{"op":"query","view":"sc1","q":"select from where"}|});
                check Alcotest.string "unmapped" "unmapped"
                  (code
                     {|{"op":"query","view":"sc1","q":"select Rank from Faculty"}|});
                check Alcotest.string "update error" "parse_error"
                  (code {|{"op":"update","view":"sc1","u":"insert garbage"}|});
                (* ... and the very same connection still gets answers *)
                let view, text = List.hd view_frames in
                check Alcotest.string "daemon still serving"
                  (offline_response_for ~view:(Some view) ~text)
                  (Server.Client.roundtrip c
                     (Server.Wire.request_to_line ~view ~text "query")))));
    tc "bounded queue answers overloaded, not buffered" (fun () ->
        with_server ~jobs:1 ~queue:1 ~debug:true (fun t addr ->
            with_client addr (fun slow ->
                with_client addr (fun fast ->
                    (* occupy the only queue slot without waiting *)
                    let sleeper =
                      Thread.create
                        (fun () ->
                          Server.Client.roundtrip slow
                            (Server.Wire.request_to_line ~text:"400" "sleep"))
                        ()
                    in
                    Thread.delay 0.1;
                    let resp =
                      Server.Client.request fast ~view:"sc1"
                        ~text:"select Name from Student" "query"
                    in
                    check Alcotest.bool "rejected" false
                      (Server.Client.is_ok resp);
                    check
                      Alcotest.(option string)
                      "overloaded" (Some "overloaded")
                      (Server.Client.error_code resp);
                    (* control ops bypass the bound *)
                    check Alcotest.bool "health still ok" true
                      (Server.Client.is_ok (Server.Client.request fast "health"));
                    Thread.join sleeper;
                    (* slot free again: the same request now succeeds *)
                    check Alcotest.bool "accepted after drain" true
                      (Server.Client.is_ok
                         (Server.Client.request fast ~view:"sc1"
                            ~text:"select Name from Student" "query"));
                    let s = Server.stats t in
                    check Alcotest.bool "overloaded counted" true
                      (s.Server.overloaded >= 1)))));
    tc "per-request deadline answers deadline_exceeded" (fun () ->
        with_server ~debug:true (fun t addr ->
            with_client addr (fun c ->
                let resp =
                  Server.Client.request c ~text:"300" ~deadline_ms:50 "sleep"
                in
                check
                  Alcotest.(option string)
                  "deadline" (Some "deadline_exceeded")
                  (Server.Client.error_code resp);
                (* without a deadline the same op completes *)
                check Alcotest.bool "no deadline" true
                  (Server.Client.is_ok
                     (Server.Client.request c ~text:"10" "sleep"));
                check Alcotest.bool "counted" true
                  ((Server.stats t).Server.deadline_exceeded >= 1))));
    tc "updates serialize and migrate resets them" (fun () ->
        with_server ~jobs:4 (fun _t addr ->
            with_client addr (fun c ->
                let count () =
                  match
                    Json.member "count"
                      (Server.Client.request c ~view:"sc1"
                         ~text:"select Name from Student" "query")
                  with
                  | Some (Json.Int n) -> n
                  | _ -> Alcotest.fail "no count"
                in
                let before = count () in
                let resp =
                  Server.Client.request c ~view:"sc1"
                    ~text:"insert into Student { Name = 'Zoe', GPA = 3.5 }"
                    "update"
                in
                check Alcotest.bool "update ok" true (Server.Client.is_ok resp);
                check Alcotest.int "one more row" (before + 1) (count ());
                let resp = Server.Client.request c "migrate" in
                check Alcotest.bool "migrate ok" true (Server.Client.is_ok resp);
                check Alcotest.int "updates reset" before (count ()))));
    tc "shutdown drains in-flight requests" (fun () ->
        let cfg =
          {
            Server.listen = local;
            jobs = 2;
            queue = 8;
            deadline_ms = None;
            cache = 16;
            debug = true;
            repl = Server.default_repl;
          }
        in
        match Server.start (Lazy.force session) cfg with
        | Error msg -> Alcotest.fail msg
        | Ok t ->
            let addr =
              match Server.port t with
              | Some p -> Server.Wire.Tcp ("127.0.0.1", p)
              | None -> Alcotest.fail "no bound port"
            in
            let c = Server.Client.connect addr in
            let resp = ref "" in
            let inflight =
              Thread.create
                (fun () ->
                  resp :=
                    Server.Client.roundtrip c
                      (Server.Wire.request_to_line ~text:"300" "sleep"))
                ()
            in
            Thread.delay 0.1;
            (* returns only once drained *)
            Server.stop t;
            Thread.join inflight;
            Server.Client.close c;
            (match Json.of_string !resp with
            | Ok v ->
                check Alcotest.bool "in-flight request was answered" true
                  (Server.Client.is_ok v)
            | Error e -> Alcotest.fail ("drained response unparseable: " ^ e));
            (* the listener is gone *)
            (match Server.Client.connect addr with
            | exception Server.Client.Connection_error _ -> ()
            | c2 ->
                Server.Client.close c2;
                Alcotest.fail "server still accepting after stop");
            (* idempotent: a second stop is a no-op *)
            Server.stop t);
  ]

(* ---- binary protocol ---------------------------------------------- *)

(* One raw binary exchange over [fd]-level primitives, so negotiation
   details (magic echo, framing) are asserted byte-by-byte rather than
   through the client's convenience layer. *)
let raw_connect addr =
  match addr with
  | Server.Wire.Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  | Server.Wire.Unix_path _ -> Alcotest.fail "tests use TCP"

let binary_tests =
  [
    tc "negotiation: the magic is echoed byte-for-byte" (fun () ->
        with_server (fun _t addr ->
            let fd, ic, oc = raw_connect addr in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                output_string oc Server.Wire.magic;
                flush oc;
                let ack =
                  really_input_string ic (String.length Server.Wire.magic)
                in
                check Alcotest.string "ack" Server.Wire.magic ack;
                (* and the connection then answers a framed request *)
                output_string oc
                  (Server.Wire.encode_bin Server.Wire.Request
                     (Server.Wire.request_to_json "health"));
                flush oc;
                let hdr = really_input_string ic 4 in
                match Server.Wire.bin_length hdr with
                | Error e -> Alcotest.fail e
                | Ok n -> (
                    let body = really_input_string ic n in
                    match Server.Wire.decode_bin (hdr ^ body) with
                    | Ok (Server.Wire.Response, v) ->
                        check Alcotest.bool "ok" true (Server.Client.is_ok v)
                    | Ok (Server.Wire.Request, _) ->
                        Alcotest.fail "server sent a request frame"
                    | Error e -> Alcotest.fail e))));
    tc "bad magic version is answered with bad_frame and closed" (fun () ->
        with_server (fun _t addr ->
            let fd, ic, oc = raw_connect addr in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                (* right sniff byte, wrong version *)
                output_string oc "\xb5SITB1\x09\x09";
                flush oc;
                let hdr = really_input_string ic 4 in
                match Server.Wire.bin_length hdr with
                | Error e -> Alcotest.fail e
                | Ok n -> (
                    let body = really_input_string ic n in
                    (match Server.Wire.decode_bin (hdr ^ body) with
                    | Ok (Server.Wire.Response, v) ->
                        check
                          Alcotest.(option string)
                          "code" (Some "bad_frame")
                          (Server.Client.error_code v)
                    | _ -> Alcotest.fail "expected an error response frame");
                    (* connection is closed after the error *)
                    match input_char ic with
                    | exception End_of_file -> ()
                    | _ -> Alcotest.fail "connection still open after bad magic"))));
    tc "binary and JSON responses carry identical payloads" (fun () ->
        with_server (fun _t addr ->
            with_client addr (fun cj ->
                let cb = Server.Client.connect ~proto:Server.Wire.Bin addr in
                Fun.protect
                  ~finally:(fun () -> Server.Client.close cb)
                  (fun () ->
                    List.iter
                      (fun line ->
                        check Alcotest.string line
                          (Server.Client.roundtrip cj line)
                          (Server.Client.roundtrip cb line))
                      (frames ())))));
    tc "binary framing errors keep the connection alive" (fun () ->
        with_server (fun _t addr ->
            let fd, ic, oc = raw_connect addr in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                output_string oc Server.Wire.magic;
                flush oc;
                ignore (really_input_string ic (String.length Server.Wire.magic));
                let read_resp () =
                  let hdr = really_input_string ic 4 in
                  match Server.Wire.bin_length hdr with
                  | Error e -> Alcotest.fail e
                  | Ok n -> (
                      let body = really_input_string ic n in
                      match Server.Wire.decode_bin (hdr ^ body) with
                      | Ok (Server.Wire.Response, v) -> v
                      | _ -> Alcotest.fail "expected a response frame")
                in
                (* a complete frame with a bad value tag: answered, not
                   fatal, because the stream stays at a frame boundary *)
                output_string oc "\x00\x00\x00\x02\x01\xff";
                flush oc;
                check
                  Alcotest.(option string)
                  "bad tag" (Some "bad_frame")
                  (Server.Client.error_code (read_resp ()));
                (* same connection still serves *)
                output_string oc
                  (Server.Wire.encode_bin Server.Wire.Request
                     (Server.Wire.request_to_json "health"));
                flush oc;
                check Alcotest.bool "still serving" true
                  (Server.Client.is_ok (read_resp ()));
                (* an oversized length prefix is fatal: error, then EOF *)
                output_string oc "\x7f\xff\xff\xff";
                flush oc;
                check
                  Alcotest.(option string)
                  "oversized" (Some "bad_frame")
                  (Server.Client.error_code (read_resp ()));
                match input_char ic with
                | exception End_of_file -> ()
                | _ -> Alcotest.fail "connection open after oversized prefix")));
    tc "drive runs the same workload over the binary protocol" (fun () ->
        with_server ~jobs:2 (fun _t addr ->
            let pool = Array.of_list (frames ()) in
            let load = Array.init 400 (fun i -> pool.(i mod Array.length pool)) in
            let stats =
              Server.Client.drive ~proto:Server.Wire.Bin ~addr ~conns:4
                ~frames:load ()
            in
            check Alcotest.int "all ok" 400 stats.Server.Client.ok;
            check Alcotest.int "no divergence" 0 stats.Server.Client.mismatches));
  ]

(* ---- lanes: per-connection placement ------------------------------ *)

let cfg_with ?(debug = false) jobs =
  { (Server.default_config local) with Server.jobs; debug }

(* Polls [cond] every 10 ms; fails after [seconds]. *)
let await_cond ?(seconds = 5.) what cond =
  let deadline = Unix.gettimeofday () +. seconds in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if not (cond ()) then Alcotest.failf "timed out waiting for %s" what

(* Runs [f] on a thread and fails unless it returns within [seconds] —
   a hung drain fails the test instead of hanging the suite. *)
let within ~seconds what f =
  let out = Atomic.make None in
  let th =
    Thread.create
      (fun () ->
        Atomic.set out (Some (match f () with () -> Ok () | exception e -> Error e)))
      ()
  in
  await_cond ~seconds (what ^ " to return") (fun () -> Atomic.get out <> None);
  Thread.join th;
  match Atomic.get out with
  | Some (Error e) -> raise e
  | _ -> ()

(* Everything [fd] delivers up to EOF (or a reset); [None] if the peer
   neither answers nor closes within [seconds]. *)
let read_to_eof ?(seconds = 5.) fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Some (Buffer.contents buf)
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              go ()
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
              Some (Buffer.contents buf))
  in
  go ()

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let health_field t name =
  match Json.of_string (Server.exec t {|{"op":"health"}|}) with
  | Ok v -> Json.member name v
  | Error e -> Alcotest.fail e

let lane_of t conn =
  match
    List.find_opt
      (fun (c : Server.For_testing.conn_info) -> c.Server.For_testing.conn = conn)
      (Server.For_testing.connections t)
  with
  | Some c -> c
  | None -> Alcotest.failf "connection %d is not live" conn

let self_domain () = (Stdlib.Domain.self () :> int)

let lane_tests =
  [
    tc "drain at jobs 4 answers every in-flight sleep and joins every lane"
      (fun () ->
        let t, addr = start_exn (cfg_with ~debug:true 4) in
        let sleepers = List.init 6 (fun _ -> raw_connect addr) in
        List.iter
          (fun (_, _, oc) ->
            send_line oc (Server.Wire.request_to_line ~text:"300" "sleep"))
          sleepers;
        await_cond "6 sleeps in flight" (fun () ->
            health_field t "inflight" = Some (Json.Int 6));
        check Alcotest.int "3 lane domains" 3 (Server.For_testing.lane_domains t);
        (* one more connection, accepted but maybe not yet started *)
        let ((late_fd, _, late_oc) as late) = raw_connect addr in
        send_line late_oc (Server.Wire.request_to_line ~text:"10" "sleep");
        await_cond "the late connection to be accepted" (fun () ->
            List.length (Server.For_testing.connections t) = 7);
        within ~seconds:10. "Server.stop" (fun () -> Server.stop t);
        check Alcotest.int "no lane domain left" 0
          (Server.For_testing.lane_domains t);
        List.iteri
          (fun i (fd, _, _) ->
            match read_to_eof fd with
            | None -> Alcotest.failf "sleeper %d never saw EOF" i
            | Some text -> (
                match String.split_on_char '\n' text with
                | [ line; "" ] -> (
                    match Json.of_string line with
                    | Ok v ->
                        check Alcotest.bool
                          (Printf.sprintf "sleeper %d answered ok" i)
                          true (Server.Client.is_ok v)
                    | Error e -> Alcotest.fail e)
                | _ -> Alcotest.failf "sleeper %d got %S" i text))
          sleepers;
        (match read_to_eof late_fd with
        | None -> Alcotest.fail "the late connection was leaked"
        | Some "" -> ()
        | Some text -> (
            (* served: one response, then EOF *)
            match Json.of_string (String.trim text) with
            | Ok v ->
                check Alcotest.bool "late answer is a response" true
                  (Server.Client.is_ok v
                  || Server.Client.error_code v = Some "shutting_down")
            | Error e -> Alcotest.fail e));
        List.iter
          (fun (fd, _, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
          (late :: sleepers));
    tc "45 start/stop cycles at jobs 4 leak no lane domain" (fun () ->
        (* 45 x 3 lane domains is past the runtime's 128-domain limit:
           a drain that missed a lane would make a later spawn fail *)
        for i = 1 to 45 do
          let t, addr = start_exn (cfg_with 4) in
          await_cond
            (Printf.sprintf "cycle %d: 3 lanes" i)
            (fun () -> Server.For_testing.lane_domains t = 3);
          with_client addr (fun c ->
              check Alcotest.bool "served" true
                (Server.Client.is_ok (Server.Client.request c "health")));
          within ~seconds:10. "Server.stop" (fun () -> Server.stop t);
          check Alcotest.int "joined" 0 (Server.For_testing.lane_domains t)
        done);
    tc "least-loaded placement: distinct lanes and domains, freed lane reused"
      (fun () ->
        with_server ~jobs:2 (fun t addr ->
            let a = Server.Client.connect addr in
            ignore (Server.Client.request a "health");
            let b = Server.Client.connect addr in
            ignore (Server.Client.request b "health");
            let ca = lane_of t 0 and cb = lane_of t 1 in
            check Alcotest.int "first on lane 0" 0 ca.Server.For_testing.lane;
            check Alcotest.int "second on lane 1" 1 cb.Server.For_testing.lane;
            check Alcotest.(option int) "lane 0 is the serving domain"
              (Some (self_domain ())) ca.Server.For_testing.domain;
            check Alcotest.bool "different handler domains" true
              (ca.Server.For_testing.domain <> cb.Server.For_testing.domain
              && cb.Server.For_testing.domain <> None);
            check Alcotest.bool "health lists per-lane load" true
              (health_field t "lanes" = Some (Json.List [ Json.Int 1; Json.Int 1 ]));
            check Alcotest.bool "health reports jobs" true
              (health_field t "jobs" = Some (Json.Int 2));
            (* free lane 1: round-robin would now pick lane 0 *)
            Server.Client.close b;
            await_cond "lane 1 to free up" (fun () ->
                List.length (Server.For_testing.connections t) = 1);
            let c = Server.Client.connect addr in
            ignore (Server.Client.request c "health");
            check Alcotest.int "third takes the freed lane" 1
              (lane_of t 2).Server.For_testing.lane;
            Server.Client.close c;
            Server.Client.close a));
    tc "jobs 1 serves on the calling domain and spawns none" (fun () ->
        (match Server.create (Lazy.force session) (cfg_with 4) with
        | Error e -> Alcotest.fail e
        | Ok t ->
            ignore (Server.exec t {|{"op":"query","view":"sc1","q":"select Name from Student"}|});
            check Alcotest.int "exec alone spawns no domain" 0
              (Server.For_testing.lane_domains t);
            Server.stop t);
        with_server ~jobs:1 (fun t addr ->
            with_client addr (fun a ->
                with_client addr (fun b ->
                    ignore (Server.Client.request a "health");
                    ignore (Server.Client.request b "health");
                    check Alcotest.int "no lane domain" 0
                      (Server.For_testing.lane_domains t);
                    List.iter
                      (fun (c : Server.For_testing.conn_info) ->
                        check Alcotest.int "lane 0" 0 c.Server.For_testing.lane;
                        check Alcotest.(option int) "calling domain"
                          (Some (self_domain ())) c.Server.For_testing.domain)
                      (Server.For_testing.connections t);
                    check Alcotest.bool "health lanes" true
                      (health_field t "lanes" = Some (Json.List [ Json.Int 2 ]))))));
    tc "cross-lane mutations match a sequential exec replay" (fun () ->
        let conns = 4 and keys = 25 in
        let frames i =
          List.concat_map
            (fun k ->
              let key = Printf.sprintf "c%dk%d" i k in
              let u text = Server.Wire.request_to_line ~view:"sc1" ~text "update" in
              let q () =
                Server.Wire.request_to_line ~view:"sc1"
                  ~text:
                    (Printf.sprintf
                       "select Name, GPA from Student where Name = '%s'" key)
                  "query"
              in
              [
                u (Printf.sprintf "insert into Student { Name = '%s', GPA = 1.0 }" key);
                u (Printf.sprintf "update Student set GPA = 3.5 where Name = '%s'" key);
                q ();
              ]
              @ (if k mod 2 = 0 then
                   [ u (Printf.sprintf "delete from Student where Name = '%s'" key) ]
                 else [])
              @ [ q () ])
            (List.init keys Fun.id)
        in
        let served =
          with_server ~jobs:4 (fun t addr ->
              let out = Array.make conns [] in
              let clients = Array.init conns (fun _ -> Server.Client.connect addr) in
              let threads =
                List.init conns (fun i ->
                    Thread.create
                      (fun () ->
                        out.(i) <-
                          List.map (Server.Client.roundtrip clients.(i)) (frames i))
                      ())
              in
              List.iter Thread.join threads;
              let lanes =
                List.sort_uniq compare
                  (List.map
                     (fun (c : Server.For_testing.conn_info) -> c.Server.For_testing.lane)
                     (Server.For_testing.connections t))
              in
              check Alcotest.(list int) "one connection per lane" [ 0; 1; 2; 3 ] lanes;
              Array.iter Server.Client.close clients;
              out)
        in
        match Server.create (Lazy.force session) (cfg_with 1) with
        | Error e -> Alcotest.fail e
        | Ok t ->
            Fun.protect
              ~finally:(fun () -> Server.stop t)
              (fun () ->
                for i = 0 to conns - 1 do
                  let replay = List.map (Server.exec t) (frames i) in
                  check Alcotest.(list string)
                    (Printf.sprintf "connection %d transcript" i)
                    replay served.(i)
                done));
  ]

(* ---- regression: strategy error paths ----------------------------- *)

let strategy_tests =
  let weights =
    Heuristics.Resemblance.default_weights Heuristics.Synonyms.default
  in
  [
    tc "binary_balanced on a single schema integrates it alone" (fun () ->
        let out =
          Integrate.Strategy.binary_balanced [ Workload.Paper.sc1 ]
            Integrate.Dda.silent
        in
        check Alcotest.int "no pairwise steps" 0 out.Integrate.Strategy.steps;
        let ladder =
          Integrate.Strategy.binary_ladder [ Workload.Paper.sc1 ]
            Integrate.Dda.silent
        in
        (* the single-schema pool must not be double-counted: same
           effort as the ladder on the same input *)
        check Alcotest.int "same pairs as ladder"
          ladder.Integrate.Strategy.stats.Integrate.Protocol.pairs_presented
          out.Integrate.Strategy.stats.Integrate.Protocol.pairs_presented);
    tc "binary_guided on a single schema integrates it alone" (fun () ->
        let out =
          Integrate.Strategy.binary_guided ~weights [ Workload.Paper.sc1 ]
            Integrate.Dda.silent
        in
        check Alcotest.int "no pairwise steps" 0 out.Integrate.Strategy.steps);
    tc "binary strategies reject an empty pool" (fun () ->
        Alcotest.check_raises "balanced"
          (Invalid_argument "Strategy.binary_balanced: no schemas")
          (fun () ->
            ignore (Integrate.Strategy.binary_balanced [] Integrate.Dda.silent));
        Alcotest.check_raises "guided"
          (Invalid_argument "Strategy.binary_guided: no schemas")
          (fun () ->
            ignore
              (Integrate.Strategy.binary_guided ~weights [] Integrate.Dda.silent)));
    tc "binary strategies complete on an odd-sized pool" (fun () ->
        let w =
          Workload.Generator.generate
            { Workload.Generator.default_params with schemas = 3; seed = 7 }
        in
        let balanced =
          Integrate.Strategy.binary_balanced
            ~register:w.Workload.Generator.register
            w.Workload.Generator.schemas w.Workload.Generator.oracle
        in
        check Alcotest.int "balanced: 2 steps for 3 schemas" 2
          balanced.Integrate.Strategy.steps;
        (* guided must finish every round even when resemblance scoring
           declines to rank the remaining pairs *)
        let guided =
          Integrate.Strategy.binary_guided ~weights
            ~register:w.Workload.Generator.register
            w.Workload.Generator.schemas w.Workload.Generator.oracle
        in
        check Alcotest.int "guided: 2 steps for 3 schemas" 2
          guided.Integrate.Strategy.steps);
    tc "binary_guided completes when no pair is ranked" (fun () ->
        (* weight-free scoring gives best_of nothing to rank: the fixed
           code degrades to pool order instead of silently stopping *)
        let w =
          Workload.Generator.generate
            { Workload.Generator.default_params with schemas = 4; seed = 11 }
        in
        let out =
          Integrate.Strategy.binary_guided ~weights:[]
            ~register:w.Workload.Generator.register
            w.Workload.Generator.schemas w.Workload.Generator.oracle
        in
        check Alcotest.int "3 steps for 4 schemas" 3
          out.Integrate.Strategy.steps);
  ]

(* ---- regression: conflict diagnostics ----------------------------- *)

let q = Qname.v

let conflict_tests =
  [
    tc "conflict_to_string names the pair, assertion and basis" (fun () ->
        let s name cls =
          Schema.make (Name.v name)
            ~objects:[ Object_class.entity (Name.v cls) ]
            ~relationships:[]
        in
        let m =
          Integrate.Assertions.create
            [ s "a" "Employee"; s "b" "Person"; s "c" "Worker" ]
        in
        let ok = function
          | Ok m -> m
          | Error _ -> Alcotest.fail "unexpected conflict"
        in
        let m =
          ok
            (Integrate.Assertions.add (q "a" "Employee")
               Integrate.Assertion.Equal (q "b" "Person") m)
        in
        let m =
          ok
            (Integrate.Assertions.add (q "b" "Person")
               Integrate.Assertion.Equal (q "c" "Worker") m)
        in
        match
          Integrate.Assertions.add (q "c" "Worker")
            Integrate.Assertion.Contained_in (q "a" "Employee") m
        with
        | Ok _ -> Alcotest.fail "conflict missed"
        | Error c ->
            let msg = Integrate.Assertions.conflict_to_string c in
            let has needle =
              check Alcotest.bool
                (Printf.sprintf "%S in %S" needle msg)
                true
                (Util.contains ~needle msg)
            in
            has "c.Worker";
            has "a.Employee";
            has "rejected";
            has "current knowledge");
    tc "workload failwith carries the conflict diagnosis" (fun () ->
        (* Domains.feed-style message assembly: the formatted failure
           must embed the offending pair and the conflict explanation,
           not just "conflict" *)
        let msg =
          Printf.sprintf "unexpected conflict integrating sc1 with sc2: %s"
            (let s name cls =
               Schema.make (Name.v name)
                 ~objects:[ Object_class.entity (Name.v cls) ]
                 ~relationships:[]
             in
             let m = Integrate.Assertions.create [ s "x" "A"; s "y" "B" ] in
             let m =
               match
                 Integrate.Assertions.add (q "x" "A") Integrate.Assertion.Equal
                   (q "y" "B") m
               with
               | Ok m -> m
               | Error _ -> Alcotest.fail "unexpected conflict"
             in
             match
               Integrate.Assertions.add (q "x" "A")
                 Integrate.Assertion.Disjoint_nonintegrable (q "y" "B") m
             with
             | Ok _ -> Alcotest.fail "conflict missed"
             | Error c -> Integrate.Assertions.conflict_to_string c)
        in
        check Alcotest.bool "pair named" true (Util.contains ~needle:"x.A" msg);
        check Alcotest.bool "attempted assertion named" true
          (Util.contains ~needle:"rejected" msg));
  ]

(* ---- regression: sit_batch finishes the script on bad directives -- *)

let sit_batch_tests =
  [
    tc "bad directives are reported, script finishes, exit is non-zero"
      (fun () ->
        let out = Filename.temp_file "sit_batch" ".out" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
          (fun () ->
            (* anchor on the test executable (_build/default/test/...):
               the binary is a sibling, the data files are in the
               source tree three levels up — independent of the cwd
               dune or a direct run picked *)
            let here = Filename.dirname Sys.executable_name in
            let data f =
              Filename.concat here
                (Filename.concat "../../../examples/data" f)
            in
            let cmd =
              Printf.sprintf
                "%s %s %s -s %s --data %s -q 'sc1: select Bogus from' -u \
                 'sc9: insert into X values ()' -q 'sc1: select Name from \
                 Student' > %s 2>&1"
                (Filename.concat here "../bin/sit_batch.exe")
                (data "sc1.ecr") (data "sc2.ecr") (data "paper_session.sit")
                (data "paper_instances.ecd") out
            in
            let rc = Sys.command cmd in
            check Alcotest.bool "non-zero exit" true (rc <> 0);
            let ic = open_in out in
            let text =
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            let has needle =
              check Alcotest.bool needle true (Util.contains ~needle text)
            in
            (* both bad directives diagnosed ... *)
            has "error: --query sc1: select Bogus from";
            has "error: --update sc9";
            has "unknown view sc9";
            (* ... and the later good directive still ran *)
            has "view query   : [sc1] select Name from Student";
            has "(2 rows)"));
  ]

let () =
  Alcotest.run "server"
    [
      ("server", server_tests);
      ("binary protocol", binary_tests);
      ("lanes", lane_tests);
      ("strategy regressions", strategy_tests);
      ("conflict diagnostics", conflict_tests);
      ("sit_batch regressions", sit_batch_tests);
    ]
