(** Query evaluation over an instance store.

    Rows are attribute-name-to-value maps.  For joined queries, target
    columns are prefixed with the target class name
    ([Department_Name]), so a row never has colliding keys.  Answers
    are multisets: {!same_answers} compares them order-insensitively
    but multiplicity-sensitively. *)

type row = Instance.Value.t Ecr.Name.Map.t

exception Error of string
(** Unknown class/relationship/attribute, or a join whose relationship
    does not connect the two classes. *)

val run : Ast.t -> Instance.Store.t -> row list
(** Evaluates against the store's schema.  The from-class extent
    includes members of its descendants (ECR category semantics).
    Join-free answers are in ascending entity-id order, joined answers
    in relationship-instance order — deterministic, which is what makes
    incremental maintenance of materialized extents ([lib/view]) able
    to promise byte-identity with from-scratch evaluation.
    @raise Error on ill-typed queries. *)

val matches : (Ecr.Name.t -> Instance.Value.t) -> Ast.pred -> bool
(** [matches lookup p] is the predicate semantics {!run} uses ([Null]
    compares false except [Null = Null]), over any value source.
    Exported so [lib/view]'s delta maintenance decides membership of a
    new entity with {e exactly} the evaluator's semantics. *)

val project_entity :
  Ecr.Schema.t ->
  Ecr.Name.t ->
  Instance.Store.Oid.t ->
  Instance.Store.t ->
  Ecr.Name.t list ->
  row
(** [project_entity schema cls oid store select] builds one answer row
    exactly as {!run} does — an empty [select] expands to the class's
    full (inherited-first) attribute list, missing values are [Null].
    The other half of the [lib/view] byte-identity contract. *)

val row : (string * Instance.Value.t) list -> row

val row_to_string : row -> string
val pp_row : Format.formatter -> row -> unit

val same_answers : row list -> row list -> bool
(** Multiset equality of answers. *)
