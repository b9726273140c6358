open Ecr

type fact = Qname.t * Assertion.t * Qname.t

type t = {
  schemas : Schema.t list;
  equivalence : Equivalence.t;
  index : Acs_index.t;
      (** kept in lockstep with [equivalence]: patched incrementally by
          [declare_equivalent]/[separate_attribute], rebuilt on the rare
          structural edits (schema add/remove) *)
  object_facts : fact list;
      (** newest first, so recording a fact is O(1); read back in entry
          order *)
  relationship_facts : fact list;  (** likewise *)
  obj_matrix : Assertions.t;
      (** in lockstep with [schemas]+[object_facts]: each accepted
          assertion extends it incrementally; rebuilt by replay on
          structural edits and retractions.  Without the cache every
          assertion replays the whole fact list — quadratic in session
          length, which federation-scale scenario scripts (hundreds of
          directives) cannot afford. *)
  rel_matrix : Assertions.t;  (** likewise, for relationship facts *)
  naming : Naming.t;
}

let empty =
  {
    schemas = [];
    equivalence = Equivalence.empty;
    index = Acs_index.empty;
    object_facts = [];
    relationship_facts = [];
    obj_matrix = Assertions.create [];
    rel_matrix = Assertions.create_for_relationships [];
    naming = Naming.default;
  }

let schemas t = t.schemas
let find_schema n t = List.find_opt (fun s -> Name.equal (Schema.name s) n) t.schemas

(* [facts] newest first, as stored; replayed in entry order. *)
let replay create facts t =
  List.fold_left
    (fun m (a, assertion, b) ->
      match Assertions.add a assertion b m with
      | Ok m -> m
      | Error _ ->
          (* Recorded facts were consistent when entered; a schema edit
             may have invalidated one.  Drop it silently — the screens
             surface the remaining facts. *)
          m)
    (create t.schemas) (List.rev facts)

(* After a structural edit the matrices' structure universe changed:
   replay the retained facts against it. *)
let rebuild_matrices t =
  {
    t with
    obj_matrix = replay Assertions.create t.object_facts t;
    rel_matrix = replay Assertions.create_for_relationships t.relationship_facts t;
  }

let add_schema s t =
  let n = Schema.name s in
  let replaced = ref false in
  let schemas =
    List.map
      (fun s' ->
        if Name.equal (Schema.name s') n then begin
          replaced := true;
          s
        end
        else s')
      t.schemas
  in
  let schemas = if !replaced then schemas else schemas @ [ s ] in
  rebuild_matrices
    {
      t with
      schemas;
      equivalence = Equivalence.register_schema s t.equivalence;
      index = Acs_index.register_schema s t.index;
    }

let remove_schema n t =
  let keeps_schema q = not (Name.equal q.Qname.schema n) in
  let keep_fact (a, _, b) = keeps_schema a && keeps_schema b in
  let equivalence =
    Equivalence.restrict (fun qa -> keeps_schema qa.Qname.Attr.owner) t.equivalence
  in
  rebuild_matrices
    {
      t with
      schemas =
        List.filter (fun s -> not (Name.equal (Schema.name s) n)) t.schemas;
      equivalence;
      (* a structural edit: restriction can split classes arbitrarily, so
         rebuild rather than patch *)
      index = Acs_index.build equivalence;
      object_facts = List.filter keep_fact t.object_facts;
      relationship_facts = List.filter keep_fact t.relationship_facts;
    }

let declare_equivalent a b t =
  {
    t with
    equivalence = Equivalence.declare a b t.equivalence;
    index = Acs_index.declare a b t.index;
  }

let separate_attribute a t =
  {
    t with
    equivalence = Equivalence.separate a t.equivalence;
    index = Acs_index.separate a t.index;
  }

let equivalence t = t.equivalence
let index t = t.index

let object_matrix t = t.obj_matrix
let relationship_matrix t = t.rel_matrix

let assert_object a assertion b t =
  match Assertions.add a assertion b t.obj_matrix with
  | Ok m ->
      Ok
        {
          t with
          object_facts = (a, assertion, b) :: t.object_facts;
          obj_matrix = m;
        }
  | Error c -> Error c

let assert_relationship a assertion b t =
  match Assertions.add a assertion b t.rel_matrix with
  | Ok m ->
      Ok
        {
          t with
          relationship_facts = (a, assertion, b) :: t.relationship_facts;
          rel_matrix = m;
        }
  | Error c -> Error c

let same_pair a b (x, _, y) =
  (Qname.equal a x && Qname.equal b y) || (Qname.equal a y && Qname.equal b x)

let retract_object a b t =
  rebuild_matrices
    {
      t with
      object_facts = List.filter (fun f -> not (same_pair a b f)) t.object_facts;
    }

let retract_relationship a b t =
  rebuild_matrices
    {
      t with
      relationship_facts =
        List.filter (fun f -> not (same_pair a b f)) t.relationship_facts;
    }

let object_facts t = List.rev t.object_facts
let relationship_facts t = List.rev t.relationship_facts

let require_schema n t =
  match find_schema n t with Some s -> s | None -> raise Not_found

let ranked_pairs n1 n2 t =
  Similarity.ranked_object_pairs_with t.index (require_schema n1 t)
    (require_schema n2 t)

let ranked_relationship_pairs n1 n2 t =
  Similarity.ranked_relationship_pairs_with t.index (require_schema n1 t)
    (require_schema n2 t)

let set_naming naming t = { t with naming }
let naming t = t.naming

let integrate ?name t =
  Pipeline.integrate
    (Pipeline.input ~naming:t.naming ?name t.schemas t.equivalence
       (object_matrix t) (relationship_matrix t))

let integrate_pair ?name n1 n2 t =
  let s1 = require_schema n1 t and s2 = require_schema n2 t in
  let sub = rebuild_matrices { t with schemas = [ s1; s2 ] } in
  Pipeline.integrate
    (Pipeline.input ~naming:t.naming ?name [ s1; s2 ] t.equivalence
       (object_matrix sub) (relationship_matrix sub))
