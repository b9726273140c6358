(* Tests for the assertion matrix: seeding, derivation (transitive
   composition) and conflict detection. *)

open Ecr
open Integrate

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check
let q = Qname.v

let assertion_opt =
  Alcotest.option (Alcotest.testable (Fmt.of_to_string Assertion.to_string) ( = ))

(* One schema with a category chain, one flat schema. *)
let s_people =
  Schema.make (Name.v "p")
    ~objects:
      [
        Object_class.entity (Name.v "Person");
        Object_class.category ~parents:[ Name.v "Person" ] (Name.v "Employee");
        Object_class.category ~parents:[ Name.v "Employee" ] (Name.v "Manager");
        Object_class.entity (Name.v "Building");
      ]
    ~relationships:[]

let s_other =
  Schema.make (Name.v "o")
    ~objects:
      [
        Object_class.entity (Name.v "Worker");
        Object_class.entity (Name.v "Site");
      ]
    ~relationships:[]

let seeding_tests =
  [
    tc "category edges seed contained-in" (fun () ->
        let m = Assertions.create [ s_people ] in
        check assertion_opt "Employee in Person" (Some Assertion.Contained_in)
          (Assertions.assertion_between m (q "p" "Employee") (q "p" "Person"));
        check assertion_opt "converse orientation" (Some Assertion.Contains)
          (Assertions.assertion_between m (q "p" "Person") (q "p" "Employee")));
    tc "chain is closed transitively at creation" (fun () ->
        let m = Assertions.create [ s_people ] in
        check assertion_opt "Manager in Person" (Some Assertion.Contained_in)
          (Assertions.assertion_between m (q "p" "Manager") (q "p" "Person")));
    tc "entity sets of one schema are disjoint" (fun () ->
        let m = Assertions.create [ s_people ] in
        check assertion_opt "Person # Building"
          (Some Assertion.Disjoint_nonintegrable)
          (Assertions.assertion_between m (q "p" "Person") (q "p" "Building"));
        (* and categories inherit the disjointness *)
        check assertion_opt "Manager # Building"
          (Some Assertion.Disjoint_nonintegrable)
          (Assertions.assertion_between m (q "p" "Manager") (q "p" "Building")));
    tc "cross-schema pairs start unknown" (fun () ->
        let m = Assertions.create [ s_people; s_other ] in
        check assertion_opt "unknown" None
          (Assertions.assertion_between m (q "p" "Person") (q "o" "Worker"));
        check Alcotest.bool "rel all" true
          (Rel.equal Rel.all (Assertions.relation m (q "p" "Person") (q "o" "Worker"))));
  ]

let ok = function
  | Ok m -> m
  | Error _ -> Alcotest.fail "unexpected conflict"

let derivation_tests =
  [
    tc "the paper's transitive example" (fun () ->
        (* Worker subset of Employee and Employee subset of Person ==>
           Worker subset of Person. *)
        let m = Assertions.create [ s_people; s_other ] in
        let m = ok (Assertions.add (q "o" "Worker") Assertion.Contained_in (q "p" "Employee") m) in
        check assertion_opt "derived" (Some Assertion.Contained_in)
          (Assertions.assertion_between m (q "o" "Worker") (q "p" "Person"));
        check Alcotest.bool "marked derived" true
          (match Assertions.source_between m (q "o" "Worker") (q "p" "Person") with
          | Some (Assertions.Derived _) -> true
          | _ -> false));
    tc "derivation through equals" (fun () ->
        let m = Assertions.create [ s_people; s_other ] in
        let m = ok (Assertions.add (q "o" "Worker") Assertion.Equal (q "p" "Employee") m) in
        check assertion_opt "worker in person" (Some Assertion.Contained_in)
          (Assertions.assertion_between m (q "o" "Worker") (q "p" "Person"));
        check assertion_opt "worker contains manager" (Some Assertion.Contains)
          (Assertions.assertion_between m (q "o" "Worker") (q "p" "Manager")));
    tc "disjointness propagates down the hierarchy" (fun () ->
        let m = Assertions.create [ s_people; s_other ] in
        let m = ok (Assertions.add (q "o" "Site") Assertion.Equal (q "p" "Building") m) in
        check assertion_opt "site # manager" (Some Assertion.Disjoint_nonintegrable)
          (Assertions.assertion_between m (q "o" "Site") (q "p" "Manager")));
    tc "derived_assertions and counts" (fun () ->
        let m = Assertions.create [ s_people; s_other ] in
        let m = ok (Assertions.add (q "o" "Worker") Assertion.Equal (q "p" "Employee") m) in
        check Alcotest.int "asserted" 1 (Assertions.asserted_count m);
        check Alcotest.bool "derived some" true (Assertions.derived_count m > 0);
        check Alcotest.bool "derived list nonempty" true
          (Assertions.derived_assertions m <> []));
    tc "explain produces asserted leaves" (fun () ->
        let m = Assertions.create [ s_people; s_other ] in
        let m = ok (Assertions.add (q "o" "Worker") Assertion.Contained_in (q "p" "Employee") m) in
        let basis = Assertions.explain m (q "o" "Worker") (q "p" "Person") in
        check Alcotest.bool "has the user assertion" true
          (List.exists
             (fun (l, r, _) ->
               (Qname.equal l (q "o" "Worker") && Qname.equal r (q "p" "Employee"))
               || (Qname.equal r (q "o" "Worker") && Qname.equal l (q "p" "Employee")))
             basis);
        check Alcotest.bool "has the structural edge" true
          (List.exists
             (fun (l, r, _) ->
               (Qname.equal l (q "p" "Employee") && Qname.equal r (q "p" "Person"))
               || (Qname.equal r (q "p" "Employee") && Qname.equal l (q "p" "Person")))
             basis));
    tc "adding in flipped orientation stores the converse" (fun () ->
        let m = Assertions.create [ s_people; s_other ] in
        let m = ok (Assertions.add (q "p" "Employee") Assertion.Contains (q "o" "Worker") m) in
        check assertion_opt "reads back" (Some Assertion.Contained_in)
          (Assertions.assertion_between m (q "o" "Worker") (q "p" "Employee")));
    tc "redundant re-assertion is a no-op" (fun () ->
        let m = Assertions.create [ s_people ] in
        let m' =
          ok (Assertions.add (q "p" "Employee") Assertion.Contained_in (q "p" "Person") m)
        in
        check Alcotest.int "no new asserted cell" (Assertions.asserted_count m)
          (Assertions.asserted_count m'));
  ]

let conflict_tests =
  [
    tc "the paper's introduction example" (fun () ->
        (* If Employee equals Person and Person equals Worker, then
           Worker cannot be a (proper) subset of Employee. *)
        let s1 =
          Schema.make (Name.v "a")
            ~objects:[ Object_class.entity (Name.v "Employee") ]
            ~relationships:[]
        and s2 =
          Schema.make (Name.v "b")
            ~objects:[ Object_class.entity (Name.v "Person") ]
            ~relationships:[]
        and s3 =
          Schema.make (Name.v "c")
            ~objects:[ Object_class.entity (Name.v "Worker") ]
            ~relationships:[]
        in
        let m = Assertions.create [ s1; s2; s3 ] in
        let m = ok (Assertions.add (q "a" "Employee") Assertion.Equal (q "b" "Person") m) in
        let m = ok (Assertions.add (q "b" "Person") Assertion.Equal (q "c" "Worker") m) in
        match Assertions.add (q "c" "Worker") Assertion.Contained_in (q "a" "Employee") m with
        | Ok _ -> Alcotest.fail "conflict missed"
        | Error c ->
            check Alcotest.bool "attempted recorded" true
              (c.Assertions.attempted = Some Assertion.Contained_in);
            check Alcotest.bool "basis mentions both equalities" true
              (List.length c.Assertions.basis >= 2));
    tc "the paper's Screen 9 scenario" (fun () ->
        let m = Assertions.create [ Workload.Paper.sc3; Workload.Paper.sc4 ] in
        let m =
          ok
            (Assertions.add (q "sc3" "Instructor") Assertion.Contained_in
               (q "sc4" "Grad_student") m)
        in
        match
          Assertions.add (q "sc3" "Instructor") Assertion.Disjoint_nonintegrable
            (q "sc4" "Student") m
        with
        | Ok _ -> Alcotest.fail "conflict missed"
        | Error c ->
            check Alcotest.bool "current is contained-in" true
              (Rel.equal c.Assertions.current (Rel.of_basic Rel.Lt)));
    tc "conflict leaves the matrix unchanged" (fun () ->
        let m = Assertions.create [ Workload.Paper.sc3; Workload.Paper.sc4 ] in
        let m =
          ok
            (Assertions.add (q "sc3" "Instructor") Assertion.Contained_in
               (q "sc4" "Grad_student") m)
        in
        (match
           Assertions.add (q "sc3" "Instructor") Assertion.Disjoint_nonintegrable
             (q "sc4" "Student") m
         with
        | Ok _ -> Alcotest.fail "conflict missed"
        | Error _ -> ());
        (* the original matrix still answers as before *)
        check assertion_opt "still contained-in" (Some Assertion.Contained_in)
          (Assertions.assertion_between m (q "sc3" "Instructor") (q "sc4" "Student")));
    tc "distant contradiction is caught by propagation" (fun () ->
        (* a = b, c = d consistent; then b subset c and d subset a close a
           cycle that forces everything equal — consistent; but then
           asserting b # d must fail. *)
        let mk n cls =
          Schema.make (Name.v n)
            ~objects:[ Object_class.entity (Name.v cls) ]
            ~relationships:[]
        in
        let m =
          Assertions.create [ mk "w" "A"; mk "x" "B"; mk "y" "C"; mk "z" "D" ]
        in
        let m = ok (Assertions.add (q "w" "A") Assertion.Equal (q "x" "B") m) in
        let m = ok (Assertions.add (q "y" "C") Assertion.Equal (q "z" "D") m) in
        let m = ok (Assertions.add (q "x" "B") Assertion.Contained_in (q "y" "C") m) in
        match Assertions.add (q "z" "D") Assertion.Disjoint_nonintegrable (q "w" "A") m with
        | Ok _ -> Alcotest.fail "conflict missed"
        | Error _ -> ());
  ]

let integration_edge_tests =
  [
    tc "nonintegrable disjoint excluded from edges" (fun () ->
        let m = Assertions.create [ s_people; s_other ] in
        let m =
          ok
            (Assertions.add (q "o" "Worker") Assertion.Disjoint_nonintegrable
               (q "p" "Person") m)
        in
        check Alcotest.bool "no cross edge" true
          (not
             (List.exists
                (fun (a, b, _) -> Qname.Pair.mem (q "o" "Worker") (Qname.Pair.make a b))
                (Assertions.integration_edges m))));
    tc "integrable disjoint included with its flag" (fun () ->
        let m = Assertions.create [ s_people; s_other ] in
        let m =
          ok
            (Assertions.add (q "o" "Worker") Assertion.Disjoint_integrable
               (q "p" "Building") m)
        in
        check Alcotest.bool "edge present" true
          (List.exists
             (fun (_, _, a) -> a = Assertion.Disjoint_integrable)
             (Assertions.integration_edges m)));
    tc "relationship matrices carry no structural seed" (fun () ->
        let m = Assertions.create_for_relationships [ Workload.Paper.sc1; Workload.Paper.sc2 ] in
        check Alcotest.int "no cells" 0 (List.length (Assertions.constrained_pairs m));
        check Alcotest.int "nodes are the relationship sets" 3
          (List.length (Assertions.nodes m)));
  ]

(* --- Differential oracle ------------------------------------------

   [Reference] is the matrix as it was before dense ids: cells in a
   [Qname.Pair.Map] oriented from the smaller name, the algebra computed
   from the per-basic tables.  Seeded random sessions drive it and
   {!Assertions} side by side, and after every [add] every observable
   must agree. *)

module Reference = struct
  type cell = { rel : Rel.t; src : Assertions.source; dj_integrable : bool }
  type t = { nodes : Qname.t list; cells : cell Qname.Pair.Map.t }

  exception Contradiction of Assertions.conflict

  let converse r =
    Rel.of_list
      (List.map
         (function Rel.Lt -> Rel.Gt | Rel.Gt -> Rel.Lt | b -> b)
         (Rel.to_list r))

  let compose r1 r2 =
    List.fold_left
      (fun acc b1 ->
        List.fold_left
          (fun acc b2 -> Rel.union acc (Rel.compose_basic b1 b2))
          acc (Rel.to_list r2))
      Rel.empty (Rel.to_list r1)

  let find_cell t pair = Qname.Pair.Map.find_opt pair t.cells

  let relation t a b =
    match find_cell t (Qname.Pair.make a b) with
    | None -> Rel.all
    | Some c -> if Qname.Pair.flipped a b then converse c.rel else c.rel

  let source_between t a b =
    Option.map (fun c -> c.src) (find_cell t (Qname.Pair.make a b))

  let dj_integrable t a b =
    match find_cell t (Qname.Pair.make a b) with
    | None -> false
    | Some c -> c.dj_integrable

  let assertion_between t a b =
    Rel.to_assertion ~integrable:(dj_integrable t a b) (relation t a b)

  let set_cell t a b rel src ~dj_integrable:flag =
    let pair = Qname.Pair.make a b in
    let oriented = if Qname.Pair.flipped a b then converse rel else rel in
    let flag =
      flag || match find_cell t pair with Some c -> c.dj_integrable | None -> false
    in
    {
      t with
      cells =
        Qname.Pair.Map.add pair
          { rel = oriented; src; dj_integrable = flag }
          t.cells;
    }

  let explain t a b =
    let rec walk visited a b =
      let pair = Qname.Pair.make a b in
      if Qname.Pair.Set.mem pair visited then []
      else
        let visited = Qname.Pair.Set.add pair visited in
        match find_cell t pair with
        | None -> []
        | Some c -> (
            match c.src with
            | Assertions.Asserted | Assertions.Structural -> (
                match
                  Rel.to_assertion ~integrable:c.dj_integrable
                    (relation t (Qname.Pair.fst pair) (Qname.Pair.snd pair))
                with
                | Some a' -> [ (Qname.Pair.fst pair, Qname.Pair.snd pair, a') ]
                | None -> [])
            | Assertions.Derived via ->
                walk visited (Qname.Pair.fst pair) via
                @ walk visited via (Qname.Pair.snd pair))
    in
    List.sort_uniq
      (fun (a1, b1, k1) (a2, b2, k2) ->
        match Qname.compare a1 a2 with
        | 0 -> (
            match Qname.compare b1 b2 with
            | 0 -> Assertion.compare k1 k2
            | c -> c)
        | c -> c)
      (walk Qname.Pair.Set.empty a b)

  let conflict_of t a b attempted =
    {
      Assertions.left = a;
      right = b;
      current = relation t a b;
      current_source = source_between t a b;
      attempted;
      basis = explain t a b;
    }

  let propagate t queue =
    let t = ref t in
    let pending = Queue.create () in
    List.iter (fun p -> Queue.add p pending) queue;
    while not (Queue.is_empty pending) do
      let a, b = Queue.pop pending in
      let rel_ab = relation !t a b in
      List.iter
        (fun k ->
          if (not (Qname.equal k a)) && not (Qname.equal k b) then begin
            let old_ak = relation !t a k in
            let new_ak = Rel.inter old_ak (compose rel_ab (relation !t b k)) in
            if not (Rel.equal new_ak old_ak) then begin
              if Rel.is_empty new_ak then
                raise
                  (Contradiction
                     { (conflict_of !t a k None) with current = new_ak });
              t := set_cell !t a k new_ak (Assertions.Derived b) ~dj_integrable:false;
              Queue.add (a, k) pending
            end;
            let old_kb = relation !t k b in
            let new_kb = Rel.inter old_kb (compose (relation !t k a) rel_ab) in
            if not (Rel.equal new_kb old_kb) then begin
              if Rel.is_empty new_kb then
                raise
                  (Contradiction
                     { (conflict_of !t k b None) with current = new_kb });
              t := set_cell !t k b new_kb (Assertions.Derived a) ~dj_integrable:false;
              Queue.add (k, b) pending
            end
          end)
        !t.nodes
    done;
    !t

  let seed_structural schemas =
    List.concat_map
      (fun s ->
        let q n = Schema.qname s n in
        let category_edges =
          List.concat_map
            (fun oc ->
              List.map
                (fun parent ->
                  (q oc.Object_class.name, Assertion.Contained_in, q parent))
                (Object_class.parents oc))
            (Schema.categories s)
        in
        let rec pairs = function
          | [] -> []
          | e :: rest ->
              List.map
                (fun e' ->
                  ( q e.Object_class.name,
                    Assertion.Disjoint_nonintegrable,
                    q e'.Object_class.name ))
                rest
              @ pairs rest
        in
        category_edges @ pairs (Schema.entities s))
      schemas

  let apply_fact t (a, assertion, b) ~src =
    let old_rel = relation t a b in
    let new_rel = Rel.inter old_rel (Rel.of_assertion assertion) in
    if Rel.is_empty new_rel then Error (conflict_of t a b (Some assertion))
    else if Rel.equal new_rel old_rel then Ok t
    else
      let dj_integrable = assertion = Assertion.Disjoint_integrable in
      match propagate (set_cell t a b new_rel src ~dj_integrable) [ (a, b) ] with
      | t -> Ok t
      | exception Contradiction c -> Error c

  let create schemas =
    let nodes =
      List.concat_map
        (fun s ->
          List.map (fun oc -> Schema.qname s oc.Object_class.name) (Schema.objects s))
        schemas
    in
    List.fold_left
      (fun t fact ->
        match apply_fact t fact ~src:Assertions.Structural with
        | Ok t -> t
        | Error _ -> t)
      { nodes; cells = Qname.Pair.Map.empty }
      (seed_structural schemas)

  let create_for_relationships schemas =
    {
      nodes =
        List.concat_map
          (fun s ->
            List.map (fun r -> Schema.qname s r.Relationship.name) (Schema.relationships s))
          schemas;
      cells = Qname.Pair.Map.empty;
    }

  let add a assertion b t = apply_fact t (a, assertion, b) ~src:Assertions.Asserted

  let constrained_pairs t =
    Qname.Pair.Map.bindings t.cells
    |> List.map (fun (p, c) -> (Qname.Pair.fst p, Qname.Pair.snd p, c.rel, c.src))

  let derived_assertions t =
    Qname.Pair.Map.bindings t.cells
    |> List.filter_map (fun (p, c) ->
           match c.src with
           | Assertions.Derived _ ->
               Option.map
                 (fun a -> (Qname.Pair.fst p, Qname.Pair.snd p, a))
                 (Rel.to_assertion ~integrable:c.dj_integrable c.rel)
           | _ -> None)

  let asserted_count t =
    Qname.Pair.Map.fold
      (fun _ c n -> if c.src = Assertions.Asserted then n + 1 else n)
      t.cells 0

  let derived_count t = List.length (derived_assertions t)

  let integration_edges t =
    Qname.Pair.Map.bindings t.cells
    |> List.filter_map (fun (p, c) ->
           match Rel.to_assertion ~integrable:c.dj_integrable c.rel with
           | Some a when Assertion.integrable a ->
               Some (Qname.Pair.fst p, Qname.Pair.snd p, a)
           | _ -> None)
end

(* Everything a client can observe of a matrix, one line per fact. *)
type 'm observe = {
  o_relation : 'm -> Qname.t -> Qname.t -> Rel.t;
  o_assertion : 'm -> Qname.t -> Qname.t -> Assertion.t option;
  o_source : 'm -> Qname.t -> Qname.t -> Assertions.source option;
  o_explain : 'm -> Qname.t -> Qname.t -> (Qname.t * Qname.t * Assertion.t) list;
  o_constrained : 'm -> (Qname.t * Qname.t * Rel.t * Assertions.source) list;
  o_derived : 'm -> (Qname.t * Qname.t * Assertion.t) list;
  o_edges : 'm -> (Qname.t * Qname.t * Assertion.t) list;
  o_asserted_count : 'm -> int;
  o_derived_count : 'm -> int;
}

let observe_impl =
  Assertions.
    {
      o_relation = relation;
      o_assertion = assertion_between;
      o_source = source_between;
      o_explain = explain;
      o_constrained = constrained_pairs;
      o_derived = derived_assertions;
      o_edges = integration_edges;
      o_asserted_count = asserted_count;
      o_derived_count = derived_count;
    }

let observe_ref =
  Reference.
    {
      o_relation = relation;
      o_assertion = assertion_between;
      o_source = source_between;
      o_explain = explain;
      o_constrained = constrained_pairs;
      o_derived = derived_assertions;
      o_edges = integration_edges;
      o_asserted_count = asserted_count;
      o_derived_count = derived_count;
    }

let string_of_triples l =
  String.concat " "
    (List.map
       (fun (a, b, k) ->
         Printf.sprintf "[%s %s %s]" (Qname.to_string a) (Assertion.to_string k)
           (Qname.to_string b))
       l)

let string_of_source = function
  | None -> "-"
  | Some s -> Assertions.source_to_string s

let dump o m universe =
  let cells =
    List.concat_map
      (fun a ->
        List.map
          (fun b ->
            Printf.sprintf "%s %s: %s %s %s {%s}" (Qname.to_string a)
              (Qname.to_string b)
              (Rel.to_string (o.o_relation m a b))
              (match o.o_assertion m a b with
              | Some k -> Assertion.to_string k
              | None -> "?")
              (string_of_source (o.o_source m a b))
              (string_of_triples (o.o_explain m a b)))
          universe)
      universe
  in
  cells
  @ List.map
      (fun (a, b, r, s) ->
        Printf.sprintf "constrained %s %s %s %s" (Qname.to_string a)
          (Qname.to_string b) (Rel.to_string r)
          (Assertions.source_to_string s))
      (o.o_constrained m)
  @ [
      "derived " ^ string_of_triples (o.o_derived m);
      "edges " ^ string_of_triples (o.o_edges m);
      Printf.sprintf "counts %d %d" (o.o_asserted_count m) (o.o_derived_count m);
    ]

let lines = Alcotest.(list string)

(* A random schema: a few entity sets and categories over earlier
   classes, sometimes with two parents (which can contradict the
   seeded disjointness of entity sets and exercise [create]'s
   rejection path). *)
let random_schema rng name =
  let n_entities = 1 + Random.State.int rng 3 in
  let n_categories = Random.State.int rng 4 in
  let entities =
    List.init n_entities (fun i -> Printf.sprintf "E%d" i)
  in
  let categories =
    List.init n_categories (fun i ->
        let earlier = entities @ List.init i (fun j -> Printf.sprintf "C%d" j) in
        let pick () = List.nth earlier (Random.State.int rng (List.length earlier)) in
        let p1 = pick () in
        let parents =
          if Random.State.int rng 4 = 0 then
            let p2 = pick () in
            if p2 = p1 then [ p1 ] else [ p1; p2 ]
          else [ p1 ]
        in
        Object_class.category
          ~parents:(List.map Name.v parents)
          (Name.v (Printf.sprintf "C%d" i)))
  in
  Schema.make (Name.v name)
    ~objects:(List.map (fun e -> Object_class.entity (Name.v e)) entities @ categories)
    ~relationships:[]

let all_assertions =
  Assertion.
    [
      Equal;
      Contained_in;
      Contains;
      May_be;
      Disjoint_integrable;
      Disjoint_nonintegrable;
    ]

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* The structure no schema declares: stored, never an intermediate. *)
let off_node = q "zz" "Stray"

type outcome = {
  accepted : int;
  rejected : int;
  by_propagation : int;  (** rejections found by the closure *)
  copied_then_rejected : int;
      (** of those, the ones whose [add] had already copied (and so
          written) rows; counted only while Obs is enabled *)
}

let no_outcome =
  { accepted = 0; rejected = 0; by_propagation = 0; copied_then_rejected = 0 }

let sum a b =
  {
    accepted = a.accepted + b.accepted;
    rejected = a.rejected + b.rejected;
    by_propagation = a.by_propagation + b.by_propagation;
    copied_then_rejected = a.copied_then_rejected + b.copied_then_rejected;
  }

let rows_copied = Obs.Counter.make "assertions.rows_copied"

(* Drive one seeded session through both implementations, comparing
   every observable after each step and the conflict text on each
   rejection.  The reference is an immutable map, so after a rejection
   its dump is also the input's dump before the rejected [add]: the
   comparison checks that the rejection left its input untouched. *)
let differential ~steps ~universe impl reference rng =
  let outcome = ref no_outcome in
  let m = ref impl and r = ref reference in
  check lines "initial matrix" (dump observe_ref !r universe)
    (dump observe_impl !m universe);
  for step = 1 to steps do
    let a = pick rng universe and b = pick rng universe in
    let k = pick rng all_assertions in
    let what =
      Printf.sprintf "step %d: %s %s %s" step (Qname.to_string a)
        (Assertion.to_string k) (Qname.to_string b)
    in
    let copied = Obs.Counter.value rows_copied in
    match (Assertions.add a k b !m, Reference.add a k b !r) with
    | Ok m', Ok r' ->
        outcome := { !outcome with accepted = !outcome.accepted + 1 };
        m := m';
        r := r';
        check lines what (dump observe_ref !r universe)
          (dump observe_impl !m universe)
    | Error c, Error c' ->
        let propagation = c.attempted = None in
        outcome :=
          {
            !outcome with
            rejected = !outcome.rejected + 1;
            by_propagation = (!outcome.by_propagation + if propagation then 1 else 0);
            copied_then_rejected =
              (!outcome.copied_then_rejected
              + if propagation && Obs.Counter.value rows_copied > copied then 1 else 0);
          };
        check Alcotest.string what (Assertions.conflict_to_string c')
          (Assertions.conflict_to_string c);
        check lines (what ^ ": input unchanged") (dump observe_ref !r universe)
          (dump observe_impl !m universe)
    | Ok _, Error c' ->
        Alcotest.failf "%s: accepted, reference rejects: %s" what
          (Assertions.conflict_to_string c')
    | Error c, Ok _ ->
        Alcotest.failf "%s: rejected, reference accepts: %s" what
          (Assertions.conflict_to_string c)
  done;
  !outcome

let object_universe schemas =
  List.concat_map
    (fun s ->
      List.map (fun oc -> Schema.qname s oc.Object_class.name) (Schema.objects s))
    schemas
  @ [ off_node ]

let random_schemas rng =
  List.init (2 + Random.State.int rng 3) (fun i ->
      random_schema rng (Printf.sprintf "s%d" i))

let random_sessions () =
  List.fold_left
    (fun total seed ->
      let rng = Random.State.make [| seed |] in
      let schemas = random_schemas rng in
      sum total
        (differential ~steps:30 ~universe:(object_universe schemas)
           (Assertions.create schemas) (Reference.create schemas) rng))
    no_outcome (List.init 40 succ)

let oracle_tests =
  [
    tc "random object sessions match the reference" (fun () ->
        let total = random_sessions () in
        (* the streams must have exercised all three outcomes *)
        check Alcotest.bool "some accepted" true (total.accepted > 0);
        check Alcotest.bool "some rejected at once" true
          (total.rejected > total.by_propagation);
        check Alcotest.bool "some rejected by propagation" true
          (total.by_propagation > 0));
    tc "paper schemas and relationship matrices match the reference" (fun () ->
        let schemas = Workload.Paper.[ sc1; sc2; sc3; sc4 ] in
        let rng = Random.State.make [| 7 |] in
        ignore
          (differential ~steps:60 ~universe:(object_universe schemas)
             (Assertions.create schemas) (Reference.create schemas) rng);
        let universe =
          List.concat_map
            (fun s ->
              List.map (fun r -> Schema.qname s r.Relationship.name) (Schema.relationships s))
            schemas
          @ [ off_node ]
        in
        ignore
          (differential ~steps:40 ~universe
             (Assertions.create_for_relationships schemas)
             (Reference.create_for_relationships schemas) rng));
  ]

(* --- Persistence ---------------------------------------------------- *)

let persistence_tests =
  [
    tc "two adds branched off one matrix leave it unchanged" (fun () ->
        let schemas = [ s_people; s_other ] in
        let universe = object_universe schemas in
        let m = Assertions.create schemas in
        let before = dump observe_impl m universe in
        let m1 = ok (Assertions.add (q "o" "Worker") Assertion.Equal (q "p" "Employee") m) in
        let m2 = ok (Assertions.add (q "o" "Worker") Assertion.Contains (q "p" "Person") m) in
        check lines "parent" before (dump observe_impl m universe);
        check assertion_opt "branch 1 derived" (Some Assertion.Contained_in)
          (Assertions.assertion_between m1 (q "o" "Worker") (q "p" "Person"));
        check assertion_opt "branch 2 has its own fact" (Some Assertion.Contains)
          (Assertions.assertion_between m2 (q "o" "Worker") (q "p" "Person"));
        check assertion_opt "branch 1 kept its own fact" (Some Assertion.Equal)
          (Assertions.assertion_between m1 (q "o" "Worker") (q "p" "Employee"));
        check assertion_opt "branch 2 did not see branch 1" (Some Assertion.Contains)
          (Assertions.assertion_between m2 (q "o" "Worker") (q "p" "Employee")));
    tc "a contradiction found mid-propagation leaves the input unchanged"
      (fun () ->
        (* [differential] checks the input after every rejection; with
           Obs on it also counts the rejections whose [add] had copied
           and written rows before the contradiction surfaced *)
        Obs.enable ();
        let total = Fun.protect ~finally:Obs.disable random_sessions in
        check Alcotest.bool "rows written before a rejection" true
          (total.copied_then_rejected > 0));
  ]

let () =
  Alcotest.run "assertions"
    [
      ("seeding", seeding_tests);
      ("derivation", derivation_tests);
      ("conflicts", conflict_tests);
      ("integration-edges", integration_edge_tests);
      ("oracle", oracle_tests);
      ("persistence", persistence_tests);
    ]
