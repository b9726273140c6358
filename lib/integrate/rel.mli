(** The algebra of basic domain relations underlying assertion
    composition and conflict detection.

    Between two {e non-empty} sets exactly one of five basic relations
    holds: equal, proper subset, proper superset, proper overlap, or
    disjoint.  A cell of the assertion matrix denotes a {e set} of still-
    possible basic relations (a disjunction), represented as a bitmask.
    The paper's "rules of transitive composition of assertions" are the
    composition table of this algebra, and an assertion conflicts with
    earlier ones exactly when intersecting its denotation with the
    propagated cell leaves the empty set.

    The algebra is sound for non-empty domains: if [r1] holds between
    A and B and [r2] between B and C, the basic relation between A and C
    is a member of [compose r1 r2] (property-tested against random
    finite sets in the test suite). *)

type basic = Eq | Lt | Gt | Ov | Dj

type t = private int
(** A set of basic relations (bitmask, 0..31). *)

val empty : t
(** The inconsistent cell: no relation is possible. *)

val all : t
(** The unconstrained cell. *)

val of_bits : int -> t
(** The set whose bitmask is the low five bits of the argument: the
    inverse of the [(r :> int)] coercion, for callers that pack a cell
    into a wider int. *)

val of_basic : basic -> t
val of_list : basic list -> t
val to_list : t -> basic list

val mem : basic -> t -> bool
val is_empty : t -> bool
val is_singleton : t -> basic option
val cardinal : t -> int

val inter : t -> t -> t
val union : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool

val converse : t -> t
(** Reads the relation right-to-left: swaps [Lt]/[Gt]. *)

val compose : t -> t -> t
(** [compose r1 r2] is the set of basic relations possible between A and
    C given [r1] between A and B and [r2] between B and C. *)

val compose_basic : basic -> basic -> t
(** One entry of the composition table. *)

val of_assertion : Assertion.t -> t
(** The denotation of a DDA assertion ([Equal] -> [{Eq}], ...; both
    disjoint codes denote [{Dj}]). *)

val to_assertion : integrable:bool -> t -> Assertion.t option
(** A singleton cell rendered back as an assertion; [integrable]
    selects which disjoint code a [{Dj}] cell becomes.  [None] when the
    cell is not a singleton. *)

val basic_of_extents : ('a -> 'a -> bool) -> 'a list -> 'a list -> basic
(** [basic_of_extents equal xs ys] computes the basic relation between
    two non-empty finite sets given element equality — the reference
    model used by the property tests. *)

val basic_to_string : basic -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit
