open Ecr

type source = Asserted | Structural | Derived of Qname.t

type conflict = {
  left : Qname.t;
  right : Qname.t;
  current : Rel.t;
  current_source : source option;
  attempted : Assertion.t option;
  basis : (Qname.t * Qname.t * Assertion.t) list;
}

(* Representation.  Every structure the matrix knows gets a dense int
   id: the nodes first, in registration order, then any structure an
   assertion named that is not a node (it is stored but never iterated
   as an intermediate).  Row [i] of [rows] holds the cells (i, j), each
   packed into one int:

     bits 0-4  the {!Rel.t} bitmask, oriented i -> j
     bit 5     the DDA used code 4 (integrable disjoint) on the pair
     bits 6-   the source: 0 none, 1 asserted, 2 structural,
               3 + v derived via id v

   Both orientations are stored, so a read is one array access.  A row
   may be shorter than the id count: past its end every cell is
   [unknown].  Rows are shared between matrices and copied on their
   first write (see [add]), so a [t] is a persistent value. *)
type t = {
  nodes : Qname.t list;
  node_ids : int array;  (** ids of [nodes], in list order *)
  names : Qname.t array;  (** id -> structure *)
  ids : int Qname.Map.t;  (** structure -> id *)
  by_name : int array;
      (** every id, in {!Qname.compare} order of its name: the order in
          which the enumerations walk the cells *)
  rows : int array array;
}

let integrable_bit = 32
let src_shift = 6
let src_asserted = 1
let src_structural = 2
let src_derived = 3
let unknown = (Rel.all :> int)

exception Contradiction of conflict

(* Observability: the matrix closure is the other superlinear hot path
   of the pipeline.  [derived] counts cells tightened by composition —
   the automation the paper credits to transitive derivation;
   [conflicts] counts rejections; [rows_copied] counts the rows
   copy-on-write duplicated, the price of keeping [t] persistent. *)
let c_facts = Obs.Counter.make "assertions.facts_applied"
let c_derived = Obs.Counter.make "assertions.derived"
let c_conflicts = Obs.Counter.make "assertions.conflicts"
let c_rows_copied = Obs.Counter.make "assertions.rows_copied"

let nodes t = t.nodes

let get t i j =
  let row = t.rows.(i) in
  if j < Array.length row then Array.unsafe_get row j else unknown

let integrable_of c = c land integrable_bit <> 0

let source_of t c =
  match c lsr src_shift with
  | 0 -> None
  | 1 -> Some Asserted
  | 2 -> Some Structural
  | v -> Some (Derived t.names.(v - src_derived))

let id t q = Qname.Map.find_opt q t.ids

(* The cell of (a, b), or [unknown] when either is not in the matrix. *)
let cell t a b =
  match (id t a, id t b) with Some i, Some j -> get t i j | _ -> unknown

let name_order names =
  let order = Array.init (Array.length names) Fun.id in
  Array.sort (fun i j -> Qname.compare names.(i) names.(j)) order;
  order

(* An empty matrix over [nodes]: no row materialised yet. *)
let over nodes =
  let ids, rev_names, n =
    List.fold_left
      (fun ((ids, rev_names, n) as acc) q ->
        if Qname.Map.mem q ids then acc
        else (Qname.Map.add q n ids, q :: rev_names, n + 1))
      (Qname.Map.empty, [], 0) nodes
  in
  let names = Array.of_list (List.rev rev_names) in
  {
    nodes;
    node_ids = Array.of_list (List.map (fun q -> Qname.Map.find q ids) nodes);
    names;
    ids;
    by_name = name_order names;
    rows = Array.make n [||];
  }

(* Give [q] an id if it has none (an assertion on a structure that is
   not a node). *)
let intern t q =
  if Qname.Map.mem q t.ids then t
  else
    let names = Array.append t.names [| q |] in
    {
      t with
      names;
      ids = Qname.Map.add q (Array.length t.names) t.ids;
      by_name = name_order names;
      rows = Array.append t.rows [| [||] |];
    }

let source_to_string = function
  | Asserted -> "asserted"
  | Structural -> "structural"
  | Derived via -> Printf.sprintf "derived via %s" (Qname.to_string via)

let conflict_to_string c =
  let b = Buffer.create 128 in
  Printf.bprintf b "(%s, %s): " (Qname.to_string c.left)
    (Qname.to_string c.right);
  (match c.attempted with
  | Some a -> Printf.bprintf b "assertion \"%s\" rejected" (Assertion.to_string a)
  | None -> Buffer.add_string b "contradiction found by propagation");
  Printf.bprintf b "; current knowledge %s" (Rel.to_string c.current);
  (match c.current_source with
  | Some s -> Printf.bprintf b " (%s)" (source_to_string s)
  | None -> ());
  (match c.basis with
  | [] -> ()
  | basis ->
      Buffer.add_string b "; derived from";
      List.iter
        (fun (l, r, a) ->
          Printf.bprintf b " [%s %s %s]" (Qname.to_string l)
            (Assertion.to_string a) (Qname.to_string r))
        basis);
  Buffer.contents b

let relation t a b = Rel.of_bits (cell t a b)
let source_between t a b = source_of t (cell t a b)

let assertion_between t a b =
  let c = cell t a b in
  Rel.to_assertion ~integrable:(integrable_of c) (Rel.of_bits c)

(* Recursively unfold Derived sources down to asserted/structural
   leaves, each reported in name order of its pair.  A later
   tightening can make Derived links cyclic, so the walk keeps the
   pairs on its current path and cuts there. *)
let explain t a b =
  let stride = Array.length t.names in
  let rec walk visited i j =
    let lo, hi =
      if Qname.compare t.names.(i) t.names.(j) <= 0 then (i, j) else (j, i)
    in
    let key = (lo * stride) + hi in
    if List.mem key visited then []
    else
      let visited = key :: visited in
      let c = get t lo hi in
      match c lsr src_shift with
      | 0 -> []
      | 1 | 2 -> (
          match Rel.to_assertion ~integrable:(integrable_of c) (Rel.of_bits c) with
          | Some a' -> [ (t.names.(lo), t.names.(hi), a') ]
          | None ->
              (* non-singleton asserted cell cannot happen via [add],
                 but report nothing rather than lie *)
              [])
      | v ->
          let via = v - src_derived in
          walk visited lo via @ walk visited via hi
  in
  match (id t a, id t b) with
  | Some i, Some j ->
      (* explicit comparator: Qname order is the spelled-out-name order,
         which polymorphic compare does not follow for interned names *)
      List.sort_uniq
        (fun (a1, b1, k1) (a2, b2, k2) ->
          match Qname.compare a1 a2 with
          | 0 -> (
              match Qname.compare b1 b2 with
              | 0 -> Assertion.compare k1 k2
              | c -> c)
          | c -> c)
        (walk [] i j)
  | _ -> []

let conflict_of t a b attempted =
  {
    left = a;
    right = b;
    current = relation t a b;
    current_source = source_between t a b;
    attempted;
    basis = explain t a b;
  }

(* A matrix being changed by one [apply_fact]: [m.rows] is a fresh outer
   array; row [i] may be written once [owned] says it is a private
   copy.  Every other row is still shared with the argument of [add]. *)
type work = { m : t; owned : Bytes.t }

let row_for_write w i =
  if Bytes.unsafe_get w.owned i = '\001' then w.m.rows.(i)
  else begin
    let old = w.m.rows.(i) in
    let row = Array.make (Array.length w.m.names) unknown in
    Array.blit old 0 row 0 (Array.length old);
    w.m.rows.(i) <- row;
    Bytes.unsafe_set w.owned i '\001';
    Obs.Counter.incr c_rows_copied;
    row
  end

(* Store [rel] as the relation from [i] to [j] (and its converse from
   [j] to [i]).  A pair carrying the integrable flag is {Dj}, a
   singleton, so it is never rewritten (tightening it would empty it):
   the flag needs no carrying over. *)
let set_cell w i j (rel : Rel.t) ~src ~integrable =
  let tag =
    (if integrable then integrable_bit else 0) lor (src lsl src_shift)
  in
  (* transposed first, so that a self pair keeps [rel] itself *)
  (row_for_write w j).(i) <- (Rel.converse rel :> int) lor tag;
  (row_for_write w i).(j) <- (rel :> int) lor tag

(* Incremental path consistency: pop a recently tightened pair (a, b)
   and tighten, for every node k, (a, k) through b and (k, b) through a,
   queueing what changed, until fixpoint.  Each pop costs two table
   compositions per node, so the closure costs O(nodes) per tightened
   cell; a cell can tighten at most four times (five relation bits, never
   empty), so a closure is O(nodes^3) only in the worst case, and in
   practice proportional to the cells it derives.  Raises
   [Contradiction] when a cell would empty, reporting the partially
   propagated state. *)
let propagate w a b =
  Obs.Span.run "assertions.propagate" @@ fun () ->
  let m = w.m in
  let ks = m.node_ids in
  let pending = Queue.create () in
  Queue.add (a, b) pending;
  let contradiction i j current =
    Obs.Counter.incr c_conflicts;
    let c = conflict_of m m.names.(i) m.names.(j) None in
    raise (Contradiction { c with current })
  in
  while not (Queue.is_empty pending) do
    let a, b = Queue.pop pending in
    let rel_ab = Rel.of_bits (get m a b) in
    for x = 0 to Array.length ks - 1 do
      let k = Array.unsafe_get ks x in
      if k <> a && k <> b then begin
        (* tighten (a,k) through b *)
        let old_ak = Rel.of_bits (get m a k) in
        let new_ak =
          Rel.inter old_ak (Rel.compose rel_ab (Rel.of_bits (get m b k)))
        in
        if not (Rel.equal new_ak old_ak) then begin
          if Rel.is_empty new_ak then contradiction a k new_ak;
          Obs.Counter.incr c_derived;
          set_cell w a k new_ak ~src:(src_derived + b) ~integrable:false;
          Queue.add (a, k) pending
        end;
        (* tighten (k,b) through a *)
        let old_kb = Rel.of_bits (get m k b) in
        let new_kb =
          Rel.inter old_kb (Rel.compose (Rel.of_bits (get m k a)) rel_ab)
        in
        if not (Rel.equal new_kb old_kb) then begin
          if Rel.is_empty new_kb then contradiction k b new_kb;
          Obs.Counter.incr c_derived;
          set_cell w k b new_kb ~src:(src_derived + a) ~integrable:false;
          Queue.add (k, b) pending
        end
      end
    done
  done

let seed_structural schemas =
  List.concat_map
    (fun s ->
      let q n = Schema.qname s n in
      let category_edges =
        List.concat_map
          (fun oc ->
            List.map
              (fun parent -> (q oc.Object_class.name, Assertion.Contained_in, q parent))
              (Object_class.parents oc))
          (Schema.categories s)
      in
      let disjoint_entities =
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
        pairs (Schema.entities s)
      in
      category_edges @ disjoint_entities)
    schemas

(* Copy-on-write: the result gets a fresh outer row array, and a row is
   copied the first time this fact writes it, so no row reachable from
   [t] is ever written — on success or on a contradiction found halfway
   through the closure. *)
let apply_fact t (a, assertion, b) ~src =
  let rel = Rel.of_assertion assertion in
  let old_rel = relation t a b in
  let new_rel = Rel.inter old_rel rel in
  if Rel.is_empty new_rel then begin
    Obs.Counter.incr c_conflicts;
    Error (conflict_of t a b (Some assertion))
  end
  else if Rel.equal new_rel old_rel then Ok t
  else begin
    Obs.Counter.incr c_facts;
    let t = intern (intern t a) b in
    let w =
      {
        m = { t with rows = Array.copy t.rows };
        owned = Bytes.make (Array.length t.rows) '\000';
      }
    in
    let i = Qname.Map.find a t.ids and j = Qname.Map.find b t.ids in
    set_cell w i j new_rel ~src
      ~integrable:(assertion = Assertion.Disjoint_integrable);
    match propagate w i j with
    | () -> Ok w.m
    | exception Contradiction c -> Error c
  end

let create schemas =
  Obs.Span.run "assertions.seed" @@ fun () ->
  let object_nodes =
    List.concat_map
      (fun s ->
        List.map (fun oc -> Schema.qname s oc.Object_class.name) (Schema.objects s))
      schemas
  in
  List.fold_left
    (fun t fact ->
      match apply_fact t fact ~src:src_structural with
      | Ok t -> t
      | Error _ ->
          (* A schema inconsistent with itself would have failed
             validation; keep going without the offending fact. *)
          t)
    (over object_nodes) (seed_structural schemas)

let create_for_relationships schemas =
  over
    (List.concat_map
       (fun s ->
         List.map
           (fun r -> Schema.qname s r.Relationship.name)
           (Schema.relationships s))
       schemas)

let add left assertion right t =
  apply_fact t (left, assertion, right) ~src:src_asserted

(* Fold [f] over every stored cell (i, j) with [i] not after [j] in
   name order — the [Qname.Pair.Map.bindings] order of the pairs, each
   oriented from its smaller name — walking right to left so that
   consing builds lists in that order. *)
let fold_cells f t init =
  let order = t.by_name in
  let n = Array.length order in
  let acc = ref init in
  for p = n - 1 downto 0 do
    let i = order.(p) in
    (* a row never written holds no cell *)
    if Array.length t.rows.(i) > 0 then
      for q = n - 1 downto p do
        let j = order.(q) in
        let c = get t i j in
        if c lsr src_shift <> 0 then acc := f i j c !acc
      done
  done;
  !acc

let constrained_pairs t =
  fold_cells
    (fun i j c acc ->
      (t.names.(i), t.names.(j), Rel.of_bits c, Option.get (source_of t c)) :: acc)
    t []

let derived_assertions t =
  fold_cells
    (fun i j c acc ->
      if c lsr src_shift < src_derived then acc
      else
        match Rel.to_assertion ~integrable:(integrable_of c) (Rel.of_bits c) with
        | Some a -> (t.names.(i), t.names.(j), a) :: acc
        | None -> acc)
    t []

let asserted_count t =
  fold_cells
    (fun _ _ c n -> if c lsr src_shift = src_asserted then n + 1 else n)
    t 0

let derived_count t = List.length (derived_assertions t)

let integration_edges t =
  fold_cells
    (fun i j c acc ->
      match Rel.to_assertion ~integrable:(integrable_of c) (Rel.of_bits c) with
      | Some a when Assertion.integrable a -> (t.names.(i), t.names.(j), a) :: acc
      | _ -> acc)
    t []
