(** The assertion matrix: Phase 3 bookkeeping.

    Element (i, j) holds what is known about the domains of object
    classes i and j — a {!Rel.t} set of still-possible basic relations.
    Cells tighten from three sources:

    - {e structural} knowledge seeded from each component schema (a
      category is contained in its parents; entity sets of one schema
      are mutually disjoint);
    - {e DDA assertions} entered on the Assertion Collection screen;
    - {e derivation}: after every change the matrix is closed under the
      rules of transitive composition (path consistency over the
      {!Rel} algebra), so that, e.g., Worker ⊂ Employee and
      Employee ⊂ Person automatically yield Worker ⊂ Person.

    A new assertion that would empty a cell is rejected with a
    {!conflict} carrying the derivation basis — the data shown on the
    Assertion Conflict Resolution screen (Screen 9).

    {b Cost.}  Structures are numbered densely and the cells are int
    rows, so a closure step (one tightened cell) costs two table
    compositions per node: O(nodes).  A cell can tighten at most four
    times, so a closure is O(nodes{^ 3}) in the worst case; in practice
    it is proportional to the cells it derives.  The qname accessors
    ({!relation}, {!source_between}, ...) cost one O(log nodes) name
    lookup per argument; the enumerations walk every pair, O(nodes{^ 2}).

    {b Persistence.}  A [t] is an immutable value: {!add} shares every
    row it does not write with its argument and copies the rows it
    writes (counted by the [assertions.rows_copied] counter), so the
    argument answers as before whether the assertion is accepted or
    rejected. *)

type source =
  | Asserted  (** stated by the DDA *)
  | Structural  (** seeded from a component schema's own IS-A edges *)
  | Derived of Ecr.Qname.t
      (** tightened by composition through the given intermediate
          object class *)

type conflict = {
  left : Ecr.Qname.t;  (** first object class of the offending cell *)
  right : Ecr.Qname.t;  (** second object class of the offending cell *)
  current : Rel.t;  (** what the matrix knows, oriented left->right *)
  current_source : source option;
  attempted : Assertion.t option;
      (** the new assertion being entered; [None] when the conflict was
          discovered by propagation further away *)
  basis : (Ecr.Qname.t * Ecr.Qname.t * Assertion.t) list;
      (** the asserted/structural facts the current knowledge derives
          from — the "relevant assertions used in the derivation" of
          Screen 9 *)
}

type t

val create : Ecr.Schema.t list -> t
(** A matrix over all object classes of the given schemas, seeded with
    their structural knowledge and closed. *)

val create_for_relationships : Ecr.Schema.t list -> t
(** A matrix over all relationship sets (no structural seeding — the
    ECR model has no relationship IS-A). *)

val nodes : t -> Ecr.Qname.t list
(** The structures the matrix ranges over, in registration order. *)

val add :
  Ecr.Qname.t -> Assertion.t -> Ecr.Qname.t -> t -> (t, conflict) result
(** [add left a right t] records "left ⟨a⟩ right" and re-closes the
    matrix.  On conflict [t] is left unchanged and the error describes
    the contradiction.  [left] and [right] need not be {!nodes}: such a
    pair is stored, but never used as an intermediate of the closure. *)

val relation : t -> Ecr.Qname.t -> Ecr.Qname.t -> Rel.t
(** Current knowledge, oriented first-to-second argument; {!Rel.all}
    when nothing is known. *)

val assertion_between : t -> Ecr.Qname.t -> Ecr.Qname.t -> Assertion.t option
(** The cell rendered as an assertion when it is a singleton.  Disjoint
    cells render as integrable iff the DDA used code 4 on that pair. *)

val source_between : t -> Ecr.Qname.t -> Ecr.Qname.t -> source option
(** Where the cell's knowledge came from; [None] when nothing is
    known. *)

val explain : t -> Ecr.Qname.t -> Ecr.Qname.t -> (Ecr.Qname.t * Ecr.Qname.t * Assertion.t) list
(** The asserted/structural leaves supporting the current cell. *)

val source_to_string : source -> string

val conflict_to_string : conflict -> string
(** One line naming the offending pair, the rejected assertion (or the
    propagation origin), the current knowledge with its source, and the
    derivation basis — a compact textual Screen 9 for error messages. *)

val constrained_pairs : t -> (Ecr.Qname.t * Ecr.Qname.t * Rel.t * source) list
(** Every cell tighter than {!Rel.all}, oriented canonically. *)

val derived_assertions : t -> (Ecr.Qname.t * Ecr.Qname.t * Assertion.t) list
(** Singleton cells obtained by derivation (not asserted, not
    structural) — the automation the paper credits to transitive
    composition. *)

val asserted_count : t -> int
(** Number of cells the DDA stated directly. *)

val derived_count : t -> int
(** Number of singleton cells obtained by derivation alone — the
    paper's measure of how much work composition saves the DDA. *)

val integration_edges : t -> (Ecr.Qname.t * Ecr.Qname.t * Assertion.t) list
(** Singleton cells whose assertion is integrable — the edges from which
    clusters and the integrated lattice are built.  Disjoint cells
    appear only when the DDA marked them integrable. *)
