(* The observability layer: counters, histograms, span nesting, the
   JSON report round-trip, and the guarantee that instrumentation is a
   no-op while the layer is disabled. *)

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* Each test starts from a clean, enabled layer and leaves the layer
   disabled, so suites cannot contaminate each other. *)
let with_fresh f () =
  Obs.disable ();
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let counter_tests =
  [
    tc "accumulates incr and add"
      (with_fresh (fun () ->
           let c = Obs.Counter.make "test.counter_a" in
           Obs.Counter.incr c;
           Obs.Counter.incr c;
           Obs.Counter.add c 40;
           check Alcotest.int "value" 42 (Obs.Counter.value c)));
    tc "make is idempotent: same name, same counter"
      (with_fresh (fun () ->
           let c1 = Obs.Counter.make "test.counter_b" in
           let c2 = Obs.Counter.make "test.counter_b" in
           Obs.Counter.incr c1;
           Obs.Counter.incr c2;
           check Alcotest.int "shared" 2 (Obs.Counter.value c1)));
    tc "reset zeroes but keeps registration"
      (with_fresh (fun () ->
           let c = Obs.Counter.make "test.counter_c" in
           Obs.Counter.add c 7;
           Obs.reset ();
           check Alcotest.int "zeroed" 0 (Obs.Counter.value c);
           check Alcotest.bool "still listed" true
             (List.mem_assoc "test.counter_c" (Obs.Counter.all ()))));
  ]

let histogram_tests =
  [
    tc "tracks count, sum and exact extrema"
      (with_fresh (fun () ->
           let h = Obs.Histogram.make "test.histo_a" in
           List.iter (Obs.Histogram.observe h) [ 0.001; 0.002; 0.004; 0.1 ];
           check Alcotest.int "count" 4 (Obs.Histogram.count h);
           check (Alcotest.float 1e-9) "sum" 0.107 (Obs.Histogram.sum h);
           check (Alcotest.float 1e-9) "min" 0.001 (Obs.Histogram.min_value h);
           check (Alcotest.float 1e-9) "max" 0.1 (Obs.Histogram.max_value h)));
    tc "quantiles are monotone and within bucket error"
      (with_fresh (fun () ->
           let h = Obs.Histogram.make "test.histo_b" in
           for i = 1 to 1000 do
             Obs.Histogram.observe h (float_of_int i *. 1e-5)
           done;
           let p50 = Obs.Histogram.quantile h 0.5 in
           let p90 = Obs.Histogram.quantile h 0.9 in
           let p99 = Obs.Histogram.quantile h 0.99 in
           check Alcotest.bool "p50 <= p90" true (p50 <= p90);
           check Alcotest.bool "p90 <= p99" true (p90 <= p99);
           (* 4 buckets/octave means at most ~19% relative error *)
           check Alcotest.bool "p50 near 5ms" true
             (p50 > 0.005 /. 1.2 && p50 < 0.005 *. 1.2)));
    tc "time observes the elapsed wall clock"
      (with_fresh (fun () ->
           let h = Obs.Histogram.make "test.histo_c" in
           let x = Obs.Histogram.time h (fun () -> 1 + 1) in
           check Alcotest.int "result passthrough" 2 x;
           check Alcotest.int "one observation" 1 (Obs.Histogram.count h)));
    tc "time observes on the exceptional path too"
      (with_fresh (fun () ->
           let h = Obs.Histogram.make "test.histo_d" in
           (try Obs.Histogram.time h (fun () -> failwith "boom")
            with Failure _ -> ());
           check Alcotest.int "observed despite raise" 1
             (Obs.Histogram.count h)));
  ]

let span_name_tree roots =
  (* "a(b,c(d))" shorthand for comparing shapes *)
  let rec go (s : Obs.Span.snapshot) =
    match s.Obs.Span.children with
    | [] -> s.Obs.Span.name
    | cs -> s.Obs.Span.name ^ "(" ^ String.concat "," (List.map go cs) ^ ")"
  in
  String.concat "," (List.map go roots)

let span_tests =
  [
    tc "nesting builds a tree and accumulates counts"
      (with_fresh (fun () ->
           for _ = 1 to 3 do
             Obs.Span.run "outer" (fun () ->
                 Obs.Span.run "inner" (fun () -> ());
                 Obs.Span.run "inner" (fun () -> ()))
           done;
           check Alcotest.string "shape" "outer(inner)"
             (span_name_tree (Obs.Span.roots ()));
           match Obs.Span.roots () with
           | [ outer ] ->
               check Alcotest.int "outer count" 3 outer.Obs.Span.count;
               let inner = List.hd outer.Obs.Span.children in
               check Alcotest.int "inner count" 6 inner.Obs.Span.count;
               check Alcotest.bool "child time within parent" true
                 (inner.Obs.Span.total_s <= outer.Obs.Span.total_s);
               check (Alcotest.float 1e-9) "self = total - children"
                 (outer.Obs.Span.total_s -. inner.Obs.Span.total_s)
                 outer.Obs.Span.self_s
           | roots ->
               Alcotest.failf "expected one root, got %d" (List.length roots)));
    tc "same name at different depths stays distinct"
      (with_fresh (fun () ->
           Obs.Span.run "a" (fun () -> Obs.Span.run "a" (fun () -> ()));
           Obs.Span.run "a" (fun () -> ());
           check Alcotest.string "shape" "a(a)"
             (span_name_tree (Obs.Span.roots ()))));
    tc "span closes when the body raises"
      (with_fresh (fun () ->
           (try Obs.Span.run "explodes" (fun () -> failwith "boom")
            with Failure _ -> ());
           (* the stack unwound: a following span is a sibling, not a child *)
           Obs.Span.run "after" (fun () -> ());
           check Alcotest.string "shape" "after,explodes"
             (span_name_tree (Obs.Span.roots ()))));
    tc "returns the body's value"
      (with_fresh (fun () ->
           check Alcotest.int "value" 7 (Obs.Span.run "v" (fun () -> 7))));
  ]

let json_tests =
  [
    tc "print/parse round-trip"
      (with_fresh (fun () ->
           let v =
             Obs.Json.Obj
               [
                 ("s", Obs.Json.String "a \"quoted\"\n\ttab");
                 ("i", Obs.Json.Int (-42));
                 ("f", Obs.Json.Float 3.25);
                 ("b", Obs.Json.Bool true);
                 ("n", Obs.Json.Null);
                 ( "l",
                   Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Obj []; Obs.Json.List [] ]
                 );
               ]
           in
           match Obs.Json.of_string (Obs.Json.to_string v) with
           | Ok v' -> check Alcotest.bool "equal" true (v = v')
           | Error e -> Alcotest.fail e));
    tc "pretty-printed output parses identically"
      (with_fresh (fun () ->
           let v =
             Obs.Json.Obj
               [ ("x", Obs.Json.List [ Obs.Json.Float 1.5; Obs.Json.String "y" ]) ]
           in
           match Obs.Json.of_string (Obs.Json.to_string ~indent:2 v) with
           | Ok v' -> check Alcotest.bool "equal" true (v = v')
           | Error e -> Alcotest.fail e));
    tc "unicode escapes decode to UTF-8"
      (with_fresh (fun () ->
           match Obs.Json.of_string {|"Aé"|} with
           | Ok (Obs.Json.String s) -> check Alcotest.string "decoded" "A\xc3\xa9" s
           | Ok _ -> Alcotest.fail "expected a string"
           | Error e -> Alcotest.fail e));
    tc "report round-trips through the parser"
      (with_fresh (fun () ->
           let c = Obs.Counter.make "test.report_counter" in
           Obs.Counter.add c 5;
           let h = Obs.Histogram.make "test.report_histo" in
           Obs.Histogram.observe h 0.002;
           Obs.Span.run "test.report_span" (fun () ->
               Obs.Span.run "test.report_child" (fun () -> ()));
           let text =
             Obs.Report.to_string ~meta:[ ("k", Obs.Json.String "v") ] ()
           in
           match Obs.Json.of_string text with
           | Error e -> Alcotest.fail e
           | Ok doc ->
               check Alcotest.bool "meta kept" true
                 (Obs.Json.find [ "meta"; "k" ] doc
                 = Some (Obs.Json.String "v"));
               check Alcotest.bool "counter exported" true
                 (Obs.Json.find [ "counters"; "test.report_counter" ] doc
                 = Some (Obs.Json.Int 5));
               (match Obs.Json.find [ "histograms"; "test.report_histo"; "count" ] doc with
               | Some (Obs.Json.Int 1) -> ()
               | _ -> Alcotest.fail "histogram count missing");
               (match Obs.Json.member "spans" doc with
               | Some (Obs.Json.List spans) ->
                   check Alcotest.bool "span present" true
                     (List.exists
                        (fun s ->
                          Obs.Json.member "name" s
                          = Some (Obs.Json.String "test.report_span"))
                        spans)
               | _ -> Alcotest.fail "spans missing");
               (* the report itself re-serialises identically *)
               check Alcotest.bool "stable" true
                 (Obs.Json.to_string doc
                 = Obs.Json.to_string
                     (Result.get_ok (Obs.Json.of_string (Obs.Json.to_string doc))))));
  ]

(* ---- the printer against its previous implementation -------------- *)

(* The JSON printer as it was before it wrote numbers and strings
   itself, kept here as the oracle: every byte of a response, a report
   or a transcript must stay the same. *)
module Oracle = struct
  let escape_to buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let float_to_string f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.9g" f

  let to_string ?indent v =
    let buf = Buffer.create 256 in
    let nl level =
      match indent with
      | None -> ()
      | Some n ->
          Buffer.add_char buf '\n';
          Buffer.add_string buf (String.make (n * level) ' ')
    in
    let rec go level = function
      | Obs.Json.Null -> Buffer.add_string buf "null"
      | Obs.Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Obs.Json.Int i -> Buffer.add_string buf (string_of_int i)
      | Obs.Json.Float f -> Buffer.add_string buf (float_to_string f)
      | Obs.Json.String s -> escape_to buf s
      | Obs.Json.List [] -> Buffer.add_string buf "[]"
      | Obs.Json.List items ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i item ->
              if i > 0 then Buffer.add_char buf ',';
              nl (level + 1);
              go (level + 1) item)
            items;
          nl level;
          Buffer.add_char buf ']'
      | Obs.Json.Obj [] -> Buffer.add_string buf "{}"
      | Obs.Json.Obj fields ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, item) ->
              if i > 0 then Buffer.add_char buf ',';
              nl (level + 1);
              escape_to buf k;
              Buffer.add_char buf ':';
              if indent <> None then Buffer.add_char buf ' ';
              go (level + 1) item)
            fields;
          nl level;
          Buffer.add_char buf '}'
    in
    go 0 v;
    Buffer.contents buf
end

let qtest ?(count = 1000) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let prints_as_oracle v =
  String.equal (Obs.Json.to_string v) (Oracle.to_string v)

(* Floats from every region the printer treats differently: raw bit
   patterns (NaNs, infinities, subnormals), exact cents and their
   neighbours one ulp away, x.xx5 values that fall halfway, integers,
   and wide decimal exponents. *)
let float_gen =
  QCheck.Gen.(
    let cents = int_range (-100_000_000) 100_000_000 in
    frequency
      [
        (3, map Int64.float_of_bits ui64);
        (3, map (fun n -> float_of_int n /. 100.) cents);
        (1, map (fun n -> Float.succ (float_of_int n /. 100.)) cents);
        (1, map (fun n -> Float.pred (float_of_int n /. 100.)) cents);
        (2, map (fun n -> float_of_int ((10 * n) + 5) /. 1000.) cents);
        (1, map float_of_int (int_range (-2_000_000) 2_000_000));
        (1, float_range (-2e6) 2e6);
        ( 1,
          map2
            (fun m e -> float_of_int m *. (10. ** float_of_int e))
            (int_range (-99_999) 99_999) (int_range (-20) 20) );
      ])

let float_edges =
  [
    0.0; -0.0; Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity;
    0.01; -0.01; 0.009999999999999998; 0.015; 0.005; 0.125; 1.005; 2.675;
    999999.995; 999999.99; -999999.99; 1e6; -1e6; Float.pred 1e6; 1e15;
    Float.pred 1e15; 1e16; 0.1 +. 0.2; 4.94e-324; Float.min_float;
    Float.min_float /. 2.; Float.max_float; float_of_int max_int;
    float_of_int min_int;
  ]

let string_gen =
  QCheck.Gen.(
    string_size ~gen:(frequency [ (3, char); (1, oneofl [ '"'; '\\'; '\n'; '\t' ]); (1, map Char.chr (int_bound 0x1f)) ])
      (int_bound 40))

let rec json_gen n =
  QCheck.Gen.(
    let leaf =
      oneof
        [
          return Obs.Json.Null;
          map (fun b -> Obs.Json.Bool b) bool;
          map (fun i -> Obs.Json.Int i) int;
          map (fun f -> Obs.Json.Float f) float_gen;
          map (fun s -> Obs.Json.String s) string_gen;
        ]
    in
    if n <= 0 then leaf
    else
      frequency
        [
          (2, leaf);
          (1, map (fun l -> Obs.Json.List l) (list_size (int_bound 4) (json_gen (n / 2))));
          ( 1,
            map
              (fun l -> Obs.Json.Obj l)
              (list_size (int_bound 4) (pair string_gen (json_gen (n / 2)))) );
        ])

(* A document with every kind of value, as the old printer printed it. *)
let golden_doc =
  Obs.Json.Obj
    [
      ("name", Obs.Json.String "a \"q\"\\ \n\t\r\x01\x1f\x7f \xc3\xa9");
      ( "ints",
        Obs.Json.List
          [ Obs.Json.Int 0; Obs.Json.Int (-7); Obs.Json.Int max_int; Obs.Json.Int min_int ]
      );
      ( "floats",
        Obs.Json.List
          (List.map
             (fun f -> Obs.Json.Float f)
             [
               0.0; -0.0; 0.5; -12.25; 3.0; 0.01; 0.015; 999999.99; 1e6; 123456.789;
               1e15; 1e-7; Float.nan; Float.infinity; Float.neg_infinity; 0.1 +. 0.2;
             ]) );
      ("empty", Obs.Json.Obj [ ("l", Obs.Json.List []); ("o", Obs.Json.Obj []) ]);
      ("flags", Obs.Json.List [ Obs.Json.Bool true; Obs.Json.Bool false; Obs.Json.Null ]);
    ]

let golden_line =
  {|{"name":"a \"q\"\\ \n\t\r\u0001\u001f|} ^ "\x7f \xc3\xa9"
  ^ {|","ints":[0,-7,4611686018427387903,-4611686018427387904],"floats":[0.0,-0.0,0.5,-12.25,3.0,0.01,0.015,999999.99,1000000.0,123456.789,1e+15,1e-07,nan,inf,-inf,0.3],"empty":{"l":[],"o":{}},"flags":[true,false,null]}|}

let golden_indented =
  String.concat "\n"
    [
      "{";
      {|  "name": "a \"q\"\\ \n\t\r\u0001\u001f|} ^ "\x7f \xc3\xa9\",";
      {|  "ints": [|};
      "    0,";
      "    -7,";
      "    4611686018427387903,";
      "    -4611686018427387904";
      "  ],";
      {|  "floats": [|};
      "    0.0,"; "    -0.0,"; "    0.5,"; "    -12.25,"; "    3.0,"; "    0.01,";
      "    0.015,"; "    999999.99,"; "    1000000.0,"; "    123456.789,";
      "    1e+15,"; "    1e-07,"; "    nan,"; "    inf,"; "    -inf,"; "    0.3";
      "  ],";
      {|  "empty": {|};
      {|    "l": [],|};
      {|    "o": {}|};
      "  },";
      {|  "flags": [|};
      "    true,";
      "    false,";
      "    null";
      "  ]";
      "}";
    ]

let printer_tests =
  [
    qtest ~count:100_000 "floats print as \"%.1f\"/\"%.9g\" did"
      (QCheck.make ~print:(Printf.sprintf "%h") float_gen)
      (fun f -> String.equal (Obs.Json.to_string (Obs.Json.Float f)) (Oracle.float_to_string f));
    tc "edge-case floats print as before" (fun () ->
        List.iter
          (fun f ->
            check Alcotest.string (Printf.sprintf "%h" f) (Oracle.float_to_string f)
              (Obs.Json.to_string (Obs.Json.Float f)))
          float_edges);
    qtest ~count:20_000 "ints print as string_of_int"
      (QCheck.make
         QCheck.Gen.(oneof [ int; int_range (-1000) 1000; oneofl [ min_int; max_int; 0 ] ]))
      (fun i -> String.equal (Obs.Json.to_string (Obs.Json.Int i)) (string_of_int i));
    qtest ~count:20_000 "strings escape as before"
      (QCheck.make ~print:String.escaped string_gen)
      (fun s -> prints_as_oracle (Obs.Json.String s));
    qtest ~count:5_000 "documents print as before, flat and indented"
      (QCheck.make ~print:Obs.Json.to_string (json_gen 8))
      (fun v ->
        prints_as_oracle v
        && String.equal (Obs.Json.to_string ~indent:2 v) (Oracle.to_string ~indent:2 v));
    tc "golden document" (fun () ->
        check Alcotest.string "one line" golden_line (Obs.Json.to_string golden_doc);
        check Alcotest.string "indented" golden_indented
          (Obs.Json.to_string ~indent:2 golden_doc));
    tc "report text is unchanged"
      (with_fresh (fun () ->
           Obs.Counter.add (Obs.Counter.make "test.golden_counter") 7;
           let h = Obs.Histogram.make "test.golden_histo" in
           List.iter (Obs.Histogram.observe h) [ 0.002; 0.5; 12.25 ];
           Obs.Span.run "test.golden_span" (fun () -> ());
           let meta = [ ("seed", Obs.Json.Int 42); ("ratio", Obs.Json.Float 0.1) ] in
           check Alcotest.string "report"
             (Oracle.to_string ~indent:2 (Obs.Report.to_json ~meta ()))
             (Obs.Report.to_string ~meta ())));
  ]

let disabled_tests =
  [
    tc "disabled instrumentation changes no observable state"
      (with_fresh (fun () ->
           (* create the instruments while enabled, then switch off *)
           let c = Obs.Counter.make "test.disabled_counter" in
           let h = Obs.Histogram.make "test.disabled_histo" in
           Obs.disable ();
           Obs.Counter.incr c;
           Obs.Counter.add c 100;
           Obs.Histogram.observe h 1.0;
           let y = Obs.Histogram.time h (fun () -> 3) in
           let z = Obs.Span.run "test.disabled_span" (fun () -> 4) in
           check Alcotest.int "time passthrough" 3 y;
           check Alcotest.int "span passthrough" 4 z;
           check Alcotest.int "counter untouched" 0 (Obs.Counter.value c);
           check Alcotest.int "histogram untouched" 0 (Obs.Histogram.count h);
           check Alcotest.int "span tree untouched" 0
             (List.length (Obs.Span.roots ()))));
    tc "instrumented pipeline is inert while disabled"
      (with_fresh (fun () ->
           Obs.disable ();
           let pairs = Obs.Counter.make "similarity.pairs_compared" in
           let before = Obs.Counter.value pairs in
           ignore (Workload.Paper.integrate_sc1_sc2 ());
           check Alcotest.int "no pairs recorded" before
             (Obs.Counter.value pairs);
           check Alcotest.int "no spans recorded" 0
             (List.length (Obs.Span.roots ()))));
    tc "enabled pipeline records phases and counters"
      (with_fresh (fun () ->
           ignore (Workload.Paper.integrate_sc1_sc2 ());
           let counters = Obs.Counter.all () in
           let value name =
             Option.value ~default:0 (List.assoc_opt name counters)
           in
           check Alcotest.bool "derived assertions counted" true
             (value "assertions.derived" > 0);
           check Alcotest.bool "facts applied" true
             (value "assertions.facts_applied" > 0);
           check Alcotest.bool "objects out" true
             (value "integrate.objects_out" > 0);
           let roots = Obs.Span.roots () in
           check Alcotest.bool "integrate span present" true
             (List.exists
                (fun (s : Obs.Span.snapshot) -> s.Obs.Span.name = "integrate")
                roots)));
  ]

let () =
  Alcotest.run "obs"
    [
      ("counters", counter_tests);
      ("histograms", histogram_tests);
      ("spans", span_tests);
      ("json", json_tests);
      ("printer", printer_tests);
      ("disabled", disabled_tests);
    ]
