(* Tests for the query language: evaluation, rewriting in both
   directions, and instance migration. *)

open Ecr
module S = Instance.Store
module V = Instance.Value

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* ---- a populated instance of paper schema sc1 --------------------- *)

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

let eval_tests =
  [
    tc "select all" (fun () ->
        let rows = Query.Eval.run (Query.Ast.query "Student") (sc1_store ()) in
        check Alcotest.int "three students" 3 (List.length rows));
    tc "where filters" (fun () ->
        let rows =
          Query.Eval.run
            Query.Ast.(query "Student" ~where:(atom "GPA" Ge (V.real 3.0)))
            (sc1_store ())
        in
        check Alcotest.int "two" 2 (List.length rows));
    tc "projection keeps only selected columns" (fun () ->
        let rows =
          Query.Eval.run Query.Ast.(query "Student" ~select:[ "Name" ]) (sc1_store ())
        in
        List.iter
          (fun r -> check Alcotest.int "one column" 1 (Name.Map.cardinal r))
          rows);
    tc "boolean connectives" (fun () ->
        let rows =
          Query.Eval.run
            Query.Ast.(
              query "Student"
                ~where:
                  (atom "GPA" Ge (V.real 3.0) &&& not_ (atom "Name" Eq (V.str "Ann"))))
            (sc1_store ())
        in
        check Alcotest.int "only Cyd" 1 (List.length rows));
    tc "join via relationship" (fun () ->
        let rows =
          Query.Eval.run
            Query.Ast.(
              query "Student" ~select:[ "Name" ]
                ~via:
                  (join "Majors" "Department" ~target_select:[ "Name" ]
                     ~where:(atom "Name" Eq (V.str "CS"))))
            (sc1_store ())
        in
        check Alcotest.int "two in CS" 2 (List.length rows);
        List.iter
          (fun r ->
            check Alcotest.bool "has prefixed column" true
              (Name.Map.mem (Name.v "Department_Name") r))
          rows);
    tc "join projects relationship attributes" (fun () ->
        let rows =
          Query.Eval.run
            Query.Ast.(
              query "Student" ~select:[ "Name" ]
                ~via:
                  (join "Majors" "Department" ~rel_select:[ "Since" ]
                     ~target_select:[ "Name" ]))
            (sc1_store ())
        in
        check Alcotest.int "three" 3 (List.length rows);
        List.iter
          (fun r ->
            check Alcotest.bool "Majors_Since column" true
              (match Name.Map.find_opt (Name.v "Majors_Since") r with
              | Some (V.Date _) -> true
              | _ -> false))
          rows);
    tc "unknown relationship attribute raises" (fun () ->
        match
          Query.Eval.run
            Query.Ast.(
              query "Student"
                ~via:(join "Majors" "Department" ~rel_select:[ "Ghost" ]))
            (sc1_store ())
        with
        | exception Query.Eval.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    tc "null comparisons are false" (fun () ->
        let st = S.create Workload.Paper.sc1 in
        let st, _ = S.insert (Name.v "Student") Name.Map.empty st in
        let rows =
          Query.Eval.run
            Query.Ast.(query "Student" ~where:(atom "GPA" Le (V.real 9.9)))
            st
        in
        check Alcotest.int "null fails every cmp" 0 (List.length rows);
        let rows =
          Query.Eval.run
            Query.Ast.(query "Student" ~where:(not_ (atom "GPA" Le (V.real 9.9))))
            st
        in
        check Alcotest.int "negation sees it" 1 (List.length rows));
    tc "unknown class and attribute raise" (fun () ->
        (match Query.Eval.run (Query.Ast.query "Ghost") (sc1_store ()) with
        | exception Query.Eval.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
        match
          Query.Eval.run Query.Ast.(query "Student" ~select:[ "Ghost" ]) (sc1_store ())
        with
        | exception Query.Eval.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    tc "same_answers is order-insensitive but multiset-sensitive" (fun () ->
        let r1 = Query.Eval.row [ ("a", V.int 1) ]
        and r2 = Query.Eval.row [ ("a", V.int 2) ] in
        check Alcotest.bool "perm" true (Query.Eval.same_answers [ r1; r2 ] [ r2; r1 ]);
        check Alcotest.bool "dup" false (Query.Eval.same_answers [ r1; r1 ] [ r1 ]));
    tc "category extent evaluates members of children" (fun () ->
        let st = S.create Workload.Paper.sc4 in
        let st, _ =
          S.insert (Name.v "Grad_student")
            (S.tuple [ ("Name", V.str "Zoe"); ("GPA", V.real 3.5) ])
            st
        in
        let rows = Query.Eval.run (Query.Ast.query "Student") st in
        check Alcotest.int "grad visible as student" 1 (List.length rows));
  ]

(* ---- rewriting ----------------------------------------------------- *)

let paper = lazy (Workload.Paper.integrate_sc1_sc2 ())

let migrated () =
  let r = Lazy.force paper in
  let st1 = sc1_store () in
  let st2 = S.create Workload.Paper.sc2 in
  let st2, alice =
    S.insert (Name.v "Grad_student")
      (S.tuple [ ("Name", V.str "Ann"); ("GPA", V.real 3.9); ("Support_type", V.str "RA") ])
      st2
  in
  let st2, cs2 = S.insert (Name.v "Department") (S.tuple [ ("Name", V.str "CS") ]) st2 in
  let st2, prof =
    S.insert (Name.v "Faculty")
      (S.tuple [ ("Name", V.str "Dr_X"); ("Rank", V.str "Assoc") ])
      st2
  in
  let st2 = S.relate (Name.v "Major_in") [ alice; cs2 ] (S.tuple [ ("Since", V.date 2020 9 1) ]) st2 in
  let st2 = S.relate (Name.v "Works") [ prof; cs2 ] Name.Map.empty st2 in
  let merged, report =
    Query.Migrate.run r.Integrate.Result.mapping
      ~integrated:r.Integrate.Result.schema
      [ (Workload.Paper.sc1, st1); (Workload.Paper.sc2, st2) ]
  in
  (r, st1, st2, merged, report)

let rewrite_tests =
  [
    tc "view query answers survive rewriting" (fun () ->
        let r, st1, _, merged, _ = migrated () in
        let view_q =
          Query.Ast.(
            query "Student" ~select:[ "Name" ] ~where:(atom "GPA" Ge (V.real 3.0)))
        in
        let q', back =
          Query.Rewrite.to_integrated r.Integrate.Result.mapping
            ~view:Workload.Paper.sc1 view_q
        in
        check Alcotest.bool "same" true
          (Query.Eval.same_answers (Query.Eval.run view_q st1)
             (back (Query.Eval.run q' merged))));
    tc "joined view query survives rewriting" (fun () ->
        let r, st1, _, merged, _ = migrated () in
        let view_q =
          Query.Ast.(
            query "Student" ~select:[ "Name" ]
              ~via:
                (join "Majors" "Department" ~rel_select:[ "Since" ]
                   ~target_select:[ "Name" ]))
        in
        let q', back =
          Query.Rewrite.to_integrated r.Integrate.Result.mapping
            ~view:Workload.Paper.sc1 view_q
        in
        check Alcotest.bool "same" true
          (Query.Eval.same_answers (Query.Eval.run view_q st1)
             (back (Query.Eval.run q' merged))));
    tc "rewriting renames classes and attributes" (fun () ->
        let r = Lazy.force paper in
        let q', _ =
          Query.Rewrite.to_integrated r.Integrate.Result.mapping
            ~view:Workload.Paper.sc1
            Query.Ast.(query "Department" ~select:[ "Name" ])
        in
        check Alcotest.string "class" "E_Department" (Name.to_string q'.Query.Ast.from_class);
        check (Alcotest.list Alcotest.string) "attr" [ "D_Name" ]
          (List.map Name.to_string q'.Query.Ast.select));
    tc "unmapped view class raises" (fun () ->
        let r = Lazy.force paper in
        match
          Query.Rewrite.to_integrated r.Integrate.Result.mapping
            ~view:Workload.Paper.sc3
            (Query.Ast.query "Instructor")
        with
        | exception Query.Rewrite.Unmapped _ -> ()
        | _ -> Alcotest.fail "expected Unmapped");
    tc "global query unfolds to every contributing component" (fun () ->
        let r = Lazy.force paper in
        let parts =
          Query.Rewrite.to_components r.Integrate.Result.mapping
            ~integrated:r.Integrate.Result.schema
            Query.Ast.(query "D_Stud_Facu" ~select:[ "D_Name" ])
        in
        check
          (Alcotest.slist Alcotest.string String.compare)
          "components"
          [ "sc1"; "sc2"; "sc2" ]
          (List.map (fun p -> Name.to_string p.Query.Rewrite.component) parts));
    tc "global answers match the migrated instance" (fun () ->
        let r, st1, st2, merged, _ = migrated () in
        let gq = Query.Ast.(query "D_Stud_Facu" ~select:[ "D_Name" ]) in
        let direct = Query.Eval.run gq merged in
        let union =
          Query.Rewrite.run_global r.Integrate.Result.mapping
            ~integrated:r.Integrate.Result.schema
            ~stores:[ (Name.v "sc1", st1); (Name.v "sc2", st2) ]
            gq
        in
        check Alcotest.bool "covers" true
          (Query.Rewrite.covers direct union && Query.Rewrite.covers union direct));
    tc "predicates on unmapped attributes become Const false" (fun () ->
        let r = Lazy.force paper in
        let parts =
          Query.Rewrite.to_components r.Integrate.Result.mapping
            ~integrated:r.Integrate.Result.schema
            Query.Ast.(
              query "Student" ~select:[ "D_Name" ]
                ~where:(atom "Support_type" Eq (V.str "RA")))
        in
        let sc1_part =
          List.find
            (fun p -> Name.to_string p.Query.Rewrite.component = "sc1")
            parts
        in
        check Alcotest.bool "const false" true
          (match sc1_part.Query.Rewrite.query.Query.Ast.where with
          | Some (Query.Ast.Const false) -> true
          | _ -> false));
    tc "unfolding skips subclass entries already covered" (fun () ->
        (* personnel models Manager under Employee; when both map into
           the queried class's subtree, Manager's extent is already in
           Employee's answers and must not be read twice *)
        let session = Workload.Domains.company in
        let r = Workload.Domains.integrate ~name:"corp" session in
        let personnel = List.hd session.Workload.Domains.schemas in
        let st = S.create personnel in
        let st, boss =
          S.insert (Name.v "Manager")
            (S.tuple [ ("Emp_no", V.str "E1"); ("Name", V.str "Cyd") ])
            st
        in
        ignore boss;
        let merged_class =
          Option.get
            (Integrate.Mapping.object_target
               (Qname.v "personnel" "Employee")
               r.Integrate.Result.mapping)
        in
        let gq =
          Query.Ast.query (Name.to_string merged_class) ~select:[ "D_Name" ]
        in
        let rows =
          Query.Rewrite.run_global r.Integrate.Result.mapping
            ~integrated:r.Integrate.Result.schema
            ~stores:[ (Name.v "personnel", st) ]
            gq
        in
        check Alcotest.int "one row, not two" 1 (List.length rows);
        match rows with
        | [ row ] ->
            check Alcotest.int "only the requested column" 1
              (Name.Map.cardinal row)
        | _ -> Alcotest.fail "unexpected shape");
    tc "outer-union keeps rows whose reals differ past six digits" (fun () ->
        (* Rows are duplicates only when [Value.equal] holds column by
           column.  3.9000001 and 3.9000002 print alike with "%g", which
           once collapsed Ann's two rows into one; [Int 4] and
           [Real 4.0] are equal and still collapse, into the first. *)
        let r = Lazy.force paper in
        let student st name gpa =
          fst (S.insert (Name.v "Student") (S.tuple [ ("Name", V.str name); ("GPA", gpa) ]) st)
        in
        let grad st name gpa =
          fst
            (S.insert (Name.v "Grad_student")
               (S.tuple [ ("Name", V.str name); ("GPA", gpa) ])
               st)
        in
        let st1 = S.create Workload.Paper.sc1 in
        let st1 = student st1 "Ann" (V.real 3.9000001) in
        let st1 = student st1 "Ben" (V.int 4) in
        let st1 = student st1 "Cyd" (V.real 2.5) in
        let st2 = S.create Workload.Paper.sc2 in
        let st2 = grad st2 "Ann" (V.real 3.9000002) in
        let st2 = grad st2 "Ben" (V.real 4.0) in
        let st2 = grad st2 "Dee" (V.real 3.0) in
        let rows =
          Query.Rewrite.run_global r.Integrate.Result.mapping
            ~integrated:r.Integrate.Result.schema
            ~stores:[ (Name.v "sc1", st1); (Name.v "sc2", st2) ]
            Query.Ast.(query "Student" ~select:[ "D_Name"; "D_GPA" ])
        in
        let row name gpa = [ (Name.v "D_GPA", gpa); (Name.v "D_Name", V.str name) ] in
        check Alcotest.bool "both Ann rows; Ben once, as sc1 reported him" true
          (List.map Name.Map.bindings rows
          = [
              row "Ann" (V.real 3.9000001);
              row "Ben" (V.int 4);
              row "Cyd" (V.real 2.5);
              row "Ann" (V.real 3.9000002);
              row "Dee" (V.real 3.0);
            ]));
    tc "joined global query pads and renames in one pass" (fun () ->
        let r, st1, st2, _, _ = migrated () in
        let rows =
          Query.Rewrite.run_global r.Integrate.Result.mapping
            ~integrated:r.Integrate.Result.schema
            ~stores:[ (Name.v "sc1", st1); (Name.v "sc2", st2) ]
            Query.Ast.(
              query "Student" ~select:[ "D_Name"; "D_GPA"; "Support_type" ]
                ~via:
                  (join "E_Stud_Majo" "E_Department" ~rel_select:[ "D_Since" ]
                     ~target_select:[ "D_Name" ]))
        in
        let row name gpa dept since support =
          Printf.sprintf
            "{D_GPA=%s, D_Name=\"%s\", E_Department_D_Name=\"%s\", \
             E_Stud_Majo_D_Since=%s, Support_type=%s}"
            gpa name dept since support
        in
        check
          Alcotest.(list string)
          "sc1's rows padded with a Null Support_type, then sc2's"
          [
            row "Ann" "3.9" "CS" "2020-09-01" "null";
            row "Ben" "2.5" "EE" "2021-09-01" "null";
            row "Cyd" "3.2" "CS" "2022-09-01" "null";
            row "Ann" "3.9" "CS" "2020-09-01" "\"RA\"";
          ]
          (List.map Query.Eval.row_to_string rows));
    tc "covers tolerates nulls" (fun () ->
        let a = Query.Eval.row [ ("x", V.int 1); ("y", V.Null) ] in
        let b = Query.Eval.row [ ("x", V.int 1); ("y", V.int 2) ] in
        check Alcotest.bool "null sub" true (Query.Rewrite.covers [ b ] [ a ]);
        check Alcotest.bool "mismatch" false
          (Query.Rewrite.covers [ b ] [ Query.Eval.row [ ("x", V.int 9) ] ]));
  ]

let migrate_tests =
  [
    tc "migration fuses equal entities on keys" (fun () ->
        let _, _, _, merged, report = migrated () in
        check Alcotest.int "fused" 2 report.Query.Migrate.fused;
        check Alcotest.int "violations" 0 (List.length (S.check merged)));
    tc "fused entity carries values from both views" (fun () ->
        let _, _, _, merged, _ = migrated () in
        let anns =
          Query.Eval.run
            Query.Ast.(
              query "Grad_student"
                ~where:(atom "D_Name" Eq (V.str "Ann"))
                ~select:[ "D_Name"; "Support_type"; "D_GPA" ])
            merged
        in
        match anns with
        | [ row ] ->
            check Alcotest.bool "support from sc2" true
              (V.equal (V.str "RA") (Name.Map.find (Name.v "Support_type") row));
            check Alcotest.bool "gpa agreed" true
              (V.equal (V.real 3.9) (Name.Map.find (Name.v "D_GPA") row))
        | rows -> Alcotest.failf "expected exactly one Ann, got %d" (List.length rows));
    tc "category memberships preserved" (fun () ->
        let _, _, _, merged, _ = migrated () in
        check Alcotest.int "grads" 1 (S.cardinality_of (Name.v "Grad_student") merged);
        check Alcotest.int "students" 3 (S.cardinality_of (Name.v "Student") merged);
        check Alcotest.int "faculty" 1 (S.cardinality_of (Name.v "Faculty") merged);
        check Alcotest.int "d node" 4 (S.cardinality_of (Name.v "D_Stud_Facu") merged));
    tc "merged relationships deduplicate shared links" (fun () ->
        let _, _, _, merged, report = migrated () in
        check Alcotest.int "links out" 4 report.Query.Migrate.links_out;
        check Alcotest.int "E_Stud_Majo" 3
          (List.length (S.links (Name.v "E_Stud_Majo") merged));
        check Alcotest.int "works" 1 (List.length (S.links (Name.v "Works") merged)));
    tc "migration report is consistent" (fun () ->
        let _, _, _, _, report = migrated () in
        check Alcotest.int "entities in" 8 report.Query.Migrate.entities_in;
        check Alcotest.int "entities out" 6 report.Query.Migrate.entities_out);
  ]

(* ---- instance-level differential over random workloads ------------- *)

(* The paper-example tests above pin rewriting on one hand-built
   instance; these properties check the same contract — a view query
   answered directly against the view's store equals the query rewritten
   to the integrated schema and answered against the migrated instance —
   over randomly generated universes, populations and naming noise. *)

let qtest ?(count = 10) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let wl_params_gen ~flat =
  QCheck.Gen.(
    let* seed = int_range 0 10_000 in
    let* schemas = int_range 2 3 in
    let* concepts = int_range 5 9 in
    let* noise = float_range 0.0 0.4 in
    return
      {
        Workload.Generator.default_params with
        seed;
        schemas;
        concepts;
        naming_noise = noise;
        population = 60;
        subset_fraction =
          (if flat then 0.0
           else Workload.Generator.default_params.subset_fraction);
        overlap_fraction =
          (if flat then 0.0
           else Workload.Generator.default_params.overlap_fraction);
      })

let wl_params ~flat =
  QCheck.make
    ~print:(fun p ->
      Printf.sprintf "seed=%d schemas=%d concepts=%d noise=%f"
        p.Workload.Generator.seed p.Workload.Generator.schemas
        p.Workload.Generator.concepts p.Workload.Generator.naming_noise)
    (wl_params_gen ~flat)

let integrate_and_migrate p =
  let w = Workload.Generator.generate p in
  (* exhaustive Phase 2: fusion-by-key needs every true attribute
     equivalence declared, and the heuristic pre-filter legitimately
     misses noisy synonym pairs the ground-truth oracle would confirm *)
  let options =
    { Integrate.Protocol.defaults with exhaustive_attribute_pairs = true }
  in
  let r, _stats =
    Integrate.Protocol.run ~options w.Workload.Generator.schemas
      w.Workload.Generator.oracle
  in
  let stores = Workload.Generator.populate w in
  let merged, report =
    Query.Migrate.run r.Integrate.Result.mapping
      ~integrated:r.Integrate.Result.schema stores
  in
  (r, stores, merged, report)

let class_queries view oc =
  let class_name = Name.to_string oc.Object_class.name in
  let attrs =
    List.map (fun a -> Name.to_string a.Attribute.name) oc.Object_class.attributes
  in
  let scan = Query.Ast.query class_name ~select:attrs in
  ignore view;
  match List.find_opt (fun a -> a.Attribute.key) oc.Object_class.attributes with
  | None -> [ scan ]
  | Some key ->
      (* a selective filter exercises predicate rewriting too *)
      [
        scan;
        Query.Ast.(
          query class_name ~select:attrs
            ~where:
              (not_
                 (atom (Name.to_string key.Attribute.name) Eq (V.str "e0"))));
      ]

(* Every view query, answered both ways, for one generated workload:
   directly against the view's own store, and rewritten onto the
   integrated schema against the migrated instance. *)
let check_views ~relate p =
  let r, stores, merged, _ = integrate_and_migrate p in
  List.for_all
    (fun (view, st) ->
      List.for_all
        (fun oc ->
          List.for_all
            (fun q ->
              let q', back =
                Query.Rewrite.to_integrated r.Integrate.Result.mapping ~view q
              in
              let direct = Query.Eval.run q st in
              let via = back (Query.Eval.run q' merged) in
              relate ~direct ~via
              || QCheck.Test.fail_reportf
                   "answers diverge for [%s] %s: %d direct vs %d via \
                    integrated"
                   (Name.to_string (Schema.name view))
                   (Query.Ast.to_string q) (List.length direct)
                   (List.length via))
            (class_queries view oc))
        (Schema.objects view))
    stores

let query_differential_tests =
  [
    qtest "view answers are preserved exactly on partitioned universes"
      (wl_params ~flat:true)
      (* disjoint concepts: cross-view classes of one concept share all
         attribute ids, so exhaustive Phase 2 aligns their keys and
         migration fuses every pair — the global answer must equal the
         view answer, as a multiset *)
      (check_views ~relate:(fun ~direct ~via ->
           Query.Eval.same_answers direct via));
    qtest "view answers are covered on general universes"
      (wl_params ~flat:false)
      (* subset/overlap concepts have their own attributes, so their
         keys never correspond and migration rightly cannot fuse them:
         the integrated class may hold more entities than the view saw.
         The sound guarantee is containment — no view answer is lost *)
      (check_views ~relate:(fun ~direct ~via ->
           Query.Rewrite.covers via direct));
    qtest "migration preserves integrity and entity counts"
      (wl_params ~flat:true) (fun p ->
        let _, stores, merged, report = integrate_and_migrate p in
        let entities_in =
          List.fold_left
            (fun n (s, st) ->
              n
              + List.fold_left
                  (fun n oc ->
                    if oc.Object_class.kind = Object_class.Entity_set then
                      n + S.cardinality_of oc.Object_class.name st
                    else n)
                  0 (Schema.objects s))
            0 stores
        in
        (List.length (S.check merged) = 0
        || QCheck.Test.fail_report "integrity violations in migrated store")
        && (report.Query.Migrate.entities_in = entities_in
           || QCheck.Test.fail_reportf "report counts %d entities in, stores hold %d"
                report.Query.Migrate.entities_in entities_in)
        && report.Query.Migrate.entities_out
           = report.Query.Migrate.entities_in - report.Query.Migrate.fused);
  ]

let () =
  Alcotest.run "query"
    [
      ("eval", eval_tests);
      ("rewrite", rewrite_tests);
      ("migrate", migrate_tests);
      ("differential", query_differential_tests);
    ]
