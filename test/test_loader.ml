(* Tests for the instance-data text format. *)

open Ecr
module S = Instance.Store
module V = Instance.Value

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let sample =
  {|
-- the paper's sc1 data
instance sc1 {
  Student { Name = "Ann", GPA = 3.9 } as ann
  Student { Name = "Ben", GPA = 2.5 } as ben
  Department { Name = "CS" } as cs
  Majors (ann, cs) { Since = 2020-09-01 }
  Majors (ben, cs)
}
|}

let load () =
  Instance.Loader.load_string ~schemas:[ Workload.Paper.sc1; Workload.Paper.sc2 ]
    sample

(* One student with [GPA = gpa], through [to_string] and back. *)
let reload_gpa gpa =
  let st = S.create Workload.Paper.sc1 in
  let st, _ =
    S.insert (Name.v "Student") (S.tuple [ ("Name", V.str "Ann"); ("GPA", V.real gpa) ]) st
  in
  let text = Instance.Loader.to_string Workload.Paper.sc1 st in
  match Instance.Loader.load_string ~schemas:[ Workload.Paper.sc1 ] text with
  | [ (_, st') ] -> (
      match Query.Eval.run (Query.Ast.query "Student" ~select:[ "GPA" ]) st' with
      | [ row ] -> (text, Name.Map.find (Name.v "GPA") row)
      | _ -> Alcotest.fail "expected one student")
  | _ -> Alcotest.fail "expected one store"

(* finite floats of every magnitude, and the short decimals data holds *)
let finite_float =
  QCheck.Gen.(
    frequency
      [
        (2, map Int64.float_of_bits ui64);
        (2, map (fun n -> float_of_int n /. 100.) (int_range (-100_000_000) 100_000_000));
        ( 1,
          map2
            (fun m e -> float_of_int m *. (10. ** float_of_int e))
            (int_range (-9_999_999) 9_999_999) (int_range (-30) 30) );
      ]
    >|= fun x -> if Float.is_finite x then x else 0.5)

let real_tests =
  [
    tc "reals %g would round or spell with an exponent load back exactly" (fun () ->
        List.iter
          (fun (gpa, spelled) ->
            let text, v = reload_gpa gpa in
            check Alcotest.bool (spelled ^ " written") true
              (Util.contains ~needle:("GPA = " ^ spelled ^ ",") text);
            check Alcotest.bool (spelled ^ " read back") true
              (v = V.Real gpa))
          [
            (1000003.5, "1000003.5");
            (123456.5, "123456.5");
            (1e-5, "0.00001");
            (-2.5e7, "-25000000.0");
            (0.1 +. 0.2, "0.30000000000000004");
          ]);
    tc "reals %g already spelled exactly keep their bytes" (fun () ->
        List.iter
          (fun (gpa, spelled) ->
            let text, _ = reload_gpa gpa in
            check Alcotest.bool spelled true (Util.contains ~needle:("GPA = " ^ spelled ^ ",") text))
          [ (3.9, "3.9"); (100., "100.0"); (0.5, "0.5"); (-0.0, "-0.0"); (123456., "123456.0") ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:2000 ~name:"every finite real round-trips through the text"
         (QCheck.make ~print:(Printf.sprintf "%h") finite_float)
         (fun x ->
           match reload_gpa x with
           | _, V.Real y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
           | _ -> false));
  ]

let tests =
  [
    tc "entities and links load" (fun () ->
        match load () with
        | [ (_, st1); (_, st2) ] ->
            check Alcotest.int "students" 2 (S.cardinality_of (Name.v "Student") st1);
            check Alcotest.int "departments" 1
              (S.cardinality_of (Name.v "Department") st1);
            check Alcotest.int "links" 2 (List.length (S.links (Name.v "Majors") st1));
            check Alcotest.int "sc2 empty" 0 (List.length (S.entities st2))
        | _ -> Alcotest.fail "expected two stores");
    tc "values land with types" (fun () ->
        let _, st1 = List.hd (load ()) in
        let anns =
          Query.Eval.run
            Query.Ast.(query "Student" ~where:(atom "Name" Eq (V.str "Ann")))
            st1
        in
        match anns with
        | [ row ] ->
            check Alcotest.bool "gpa real" true
              (V.equal (Name.Map.find (Name.v "GPA") row) (V.real 3.9))
        | _ -> Alcotest.fail "expected one Ann");
    tc "dates parse" (fun () ->
        let _, st1 = List.hd (load ()) in
        match S.links (Name.v "Majors") st1 with
        | { S.values; _ } :: _ ->
            check Alcotest.bool "date" true
              (V.equal
                 (Option.value ~default:V.Null (Name.Map.find_opt (Name.v "Since") values))
                 (V.date 2020 9 1))
        | [] -> Alcotest.fail "no links");
    tc "category classification via 'in'" (fun () ->
        let text =
          "instance sc4 {\n  Student { Name = \"Zoe\" } as zoe\n  in \
           Grad_student: zoe\n}"
        in
        match Instance.Loader.load_string ~schemas:[ Workload.Paper.sc4 ] text with
        | [ (_, st) ] ->
            check Alcotest.int "grad extent" 1
              (S.cardinality_of (Name.v "Grad_student") st)
        | _ -> Alcotest.fail "expected one store");
    tc "round trip through to_string" (fun () ->
        let schema, st = List.hd (load ()) in
        let text = Instance.Loader.to_string schema st in
        match Instance.Loader.load_string ~schemas:[ schema ] text with
        | [ (_, st') ] ->
            check Alcotest.int "same students"
              (S.cardinality_of (Name.v "Student") st)
              (S.cardinality_of (Name.v "Student") st');
            check Alcotest.int "same links"
              (List.length (S.links (Name.v "Majors") st))
              (List.length (S.links (Name.v "Majors") st'));
            (* and answers agree *)
            let q = Query.Ast.query "Student" in
            check Alcotest.bool "same answers" true
              (Query.Eval.same_answers (Query.Eval.run q st) (Query.Eval.run q st'))
        | _ -> Alcotest.fail "expected one store");
    tc "loaded stores satisfy integrity" (fun () ->
        List.iter
          (fun (_, st) ->
            check Alcotest.int "clean" 0 (List.length (S.check st)))
          (load ()));
    tc "errors carry file:line positions and the offending token" (fun () ->
        List.iter
          (fun (text, line, needle) ->
            match
              Instance.Loader.load_string ~file:"bad.ecd"
                ~schemas:[ Workload.Paper.sc1 ] text
            with
            | exception (Instance.Loader.Error { file; line = l; _ } as e) ->
                let msg = Instance.Loader.error_to_string e in
                check Alcotest.string "file" "bad.ecd" file;
                check Alcotest.int ("line of " ^ msg) line l;
                check Alcotest.bool (needle ^ " in " ^ msg) true
                  (Util.contains ~needle msg);
                check Alcotest.bool ("position prefix in " ^ msg) true
                  (Util.contains ~needle:(Printf.sprintf "bad.ecd:%d:" line) msg)
            | _ -> Alcotest.failf "accepted %S" text)
          [
            ("instance nope { }", 1, "unknown schema");
            ("instance sc1 {\n  Ghost { }\n}", 2, "unknown structure");
            ("instance sc1 {\n  Majors (a, b)\n}", 2, "unknown label");
            ("instance sc1 {\n  Student { Name = }\n}", 2, "found '}'");
            ("instance sc1 {\n  Student { Name = 1.2.3 }\n}", 2,
             "malformed number '1.2.3'");
            ("instance sc1 {\n  Student ? { }\n}", 2, "illegal character");
          ]);
    tc "the shipped example data file loads" (fun () ->
        let text =
          {|
instance sc1 {
  Student { Name = "Ann", GPA = 3.9 } as ann
  Department { Name = "CS" } as cs
  Majors (ann, cs) { Since = 2020-09-01 }
}
instance sc2 {
  Grad_student { Name = "Ann", GPA = 3.9, Support_type = "RA" } as ann
  Department { Name = "CS" } as cs
  Major_in (ann, cs) { Since = 2020-09-01 }
  Faculty { Name = "Carol", Rank = "Prof" } as carol
  Works (carol, cs)
}
|}
        in
        let stores =
          Instance.Loader.load_string
            ~schemas:[ Workload.Paper.sc1; Workload.Paper.sc2 ]
            text
        in
        let r = Workload.Paper.integrate_sc1_sc2 () in
        let merged, report =
          Query.Migrate.run r.Integrate.Result.mapping
            ~integrated:r.Integrate.Result.schema stores
        in
        check Alcotest.int "fused" 2 report.Query.Migrate.fused;
        check Alcotest.int "clean" 0 (List.length (S.check merged)));
  ]

let () = Alcotest.run "loader" [ ("loader", tests); ("reals", real_tests) ]
