open Ecr

type row = Instance.Value.t Name.Map.t

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let compare_values cmp a b =
  let open Instance.Value in
  match (a, b) with
  | Null, Null -> cmp = Ast.Eq
  | Null, _ | _, Null -> false
  | _ ->
      let c = compare a b in
      (match cmp with
      | Ast.Eq -> c = 0
      | Ast.Ne -> c <> 0
      | Ast.Lt -> c < 0
      | Ast.Le -> c <= 0
      | Ast.Gt -> c > 0
      | Ast.Ge -> c >= 0)

let rec eval_pred lookup = function
  | Ast.Atom (a, cmp, v) -> compare_values cmp (lookup a) v
  | Ast.And (p, q) -> eval_pred lookup p && eval_pred lookup q
  | Ast.Or (p, q) -> eval_pred lookup p || eval_pred lookup q
  | Ast.Not p -> not (eval_pred lookup p)
  | Ast.Const b -> b

let check_attrs schema cls names context =
  let attrs = Attribute.names (Schema.all_attributes schema cls) in
  List.iter
    (fun n ->
      if not (List.exists (Name.equal n) attrs) then
        error "%s: class %s has no attribute %s" context (Name.to_string cls)
          (Name.to_string n))
    names

let require_class schema cls =
  match Schema.find_object cls schema with
  | Some _ -> ()
  | None -> error "unknown object class %s" (Name.to_string cls)

(* The participant position a class can play in a relationship: the
   class itself, an ancestor (its entities participate via the broader
   class) or a descendant. *)
let position_for schema rel cls ~exclude =
  let viable i p =
    (not (List.mem i exclude))
    && (Name.equal p.Relationship.obj cls
       || Schema.is_ancestor schema ~ancestor:p.Relationship.obj cls
       || Schema.is_ancestor schema ~ancestor:cls p.Relationship.obj)
  in
  let rec look i = function
    | [] -> None
    | p :: rest -> if viable i p then Some i else look (i + 1) rest
  in
  look 0 rel.Relationship.participants

(* The columns a select list stands for: an empty list is the class's
   full (inherited-first) attribute list.  Computed once per query, not
   once per answer row. *)
let columns schema cls = function
  | [] -> Attribute.names (Schema.all_attributes schema cls)
  | names -> names

let project attrs oid store =
  List.fold_left
    (fun row a -> Name.Map.add a (Instance.Store.value oid a store) row)
    Name.Map.empty attrs

(* Observability: per-query latency and answer volume — the numbers a
   serving deployment watches first. *)
let h_eval = Obs.Histogram.make "query.eval_seconds"
let c_evaluated = Obs.Counter.make "query.evaluated"
let c_rows = Obs.Counter.make "query.rows_returned"

let run_unobserved q store =
  let schema = Instance.Store.schema store in
  require_class schema q.Ast.from_class;
  check_attrs schema q.Ast.from_class q.Ast.select "select";
  Option.iter
    (fun p -> check_attrs schema q.Ast.from_class (Ast.attrs_of_pred p) "where")
    q.Ast.where;
  let extent = Instance.Store.extent q.Ast.from_class store in
  let passes cls oid pred =
    match pred with
    | None -> true
    | Some p ->
        ignore cls;
        eval_pred (fun a -> Instance.Store.value oid a store) p
  in
  let from_attrs = columns schema q.Ast.from_class q.Ast.select in
  match q.Ast.via with
  | None ->
      Instance.Store.Oid.Set.fold
        (fun oid acc ->
          if passes q.Ast.from_class oid q.Ast.where then
            project from_attrs oid store :: acc
          else acc)
        extent []
      |> List.rev
  | Some j ->
      let rel =
        match Schema.find_relationship j.Ast.rel schema with
        | Some r -> r
        | None -> error "unknown relationship %s" (Name.to_string j.Ast.rel)
      in
      require_class schema j.Ast.target;
      check_attrs schema j.Ast.target j.Ast.target_select "target select";
      Option.iter
        (fun p -> check_attrs schema j.Ast.target (Ast.attrs_of_pred p) "target where")
        j.Ast.target_where;
      let from_pos =
        match position_for schema rel q.Ast.from_class ~exclude:[] with
        | Some i -> i
        | None ->
            error "class %s does not participate in %s"
              (Name.to_string q.Ast.from_class)
              (Name.to_string j.Ast.rel)
      in
      let target_pos =
        match position_for schema rel j.Ast.target ~exclude:[ from_pos ] with
        | Some i -> i
        | None ->
            error "class %s does not participate in %s"
              (Name.to_string j.Ast.target)
              (Name.to_string j.Ast.rel)
      in
      (* relationship attributes must exist on the relationship set *)
      List.iter
        (fun n ->
          if Attribute.find n rel.Relationship.attributes = None then
            error "relationship %s has no attribute %s"
              (Name.to_string j.Ast.rel) (Name.to_string n))
        j.Ast.rel_select;
      let target_extent = Instance.Store.extent j.Ast.target store in
      let target_attrs = columns schema j.Ast.target j.Ast.target_select in
      let prefix a =
        Name.v (Name.to_string j.Ast.target ^ "_" ^ Name.to_string a)
      in
      let rel_prefix a =
        Name.v (Name.to_string j.Ast.rel ^ "_" ^ Name.to_string a)
      in
      List.filter_map
        (fun { Instance.Store.participants; values } ->
          let oid_f = List.nth participants from_pos
          and oid_t = List.nth participants target_pos in
          if
            Instance.Store.Oid.Set.mem oid_f extent
            && Instance.Store.Oid.Set.mem oid_t target_extent
            && passes q.Ast.from_class oid_f q.Ast.where
            && passes j.Ast.target oid_t j.Ast.target_where
          then begin
            let base = project from_attrs oid_f store in
            let trow = project target_attrs oid_t store in
            let with_target =
              Name.Map.fold
                (fun a v acc -> Name.Map.add (prefix a) v acc)
                trow base
            in
            Some
              (List.fold_left
                 (fun acc a ->
                   Name.Map.add (rel_prefix a)
                     (Option.value ~default:Instance.Value.Null
                        (Name.Map.find_opt a values))
                     acc)
                 with_target j.Ast.rel_select)
          end
          else None)
        (Instance.Store.links j.Ast.rel store)

let run q store =
  Obs.Span.run "query.eval" @@ fun () ->
  Obs.Histogram.time h_eval @@ fun () ->
  Obs.Counter.incr c_evaluated;
  let rows = run_unobserved q store in
  Obs.Counter.add c_rows (List.length rows);
  rows

let row bindings =
  List.fold_left
    (fun m (k, v) -> Name.Map.add (Name.v k) v m)
    Name.Map.empty bindings

let row_to_string r =
  Name.Map.bindings r
  |> List.map (fun (k, v) ->
         Name.to_string k ^ "=" ^ Instance.Value.to_string v)
  |> String.concat ", "
  |> fun s -> "{" ^ s ^ "}"

let pp_row fmt r = Format.pp_print_string fmt (row_to_string r)

let same_answers a b =
  let sort rows = List.sort compare (List.map Name.Map.bindings rows) in
  sort a = sort b

let matches = eval_pred

let project_entity schema cls oid store select =
  project (columns schema cls select) oid store
