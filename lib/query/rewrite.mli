(** Mapping-driven query translation — the operational payoff of
    integration.

    Two directions, matching the paper's two contexts:

    - {e logical database design}: a query against a component view is
      rewritten {e to} the integrated (logical) schema
      ({!to_integrated});
    - {e global schema design}: a query against the integrated (global)
      schema is unfolded {e to} the component schemas
      ({!to_components}, {!run_global}).

    Both directions return post-processors that restore the caller's
    column names, so answers are directly comparable — the property the
    test suite and experiment E16 check on migrated instances. *)

exception Unmapped of string
(** The mapping has no entry for a structure the query mentions. *)

val rename_for_view :
  Integrate.Mapping.t -> Ecr.Schema.t -> Ecr.Name.t -> Ecr.Name.t -> Ecr.Name.t
(** [rename_for_view m view cls attr] is the integrated name of a (possibly
    inherited) attribute of the view class [cls]; identity when no mapping
    is recorded.  Shared by query and update translation. *)

val to_integrated :
  Integrate.Mapping.t ->
  view:Ecr.Schema.t ->
  Ast.t ->
  Ast.t * (Eval.row list -> Eval.row list)
(** [to_integrated m ~view q] rewrites a query against [view] into a
    query against the integrated schema.  Empty selects are expanded to
    the view class's attribute list first, so the answer shape is the
    view's.  The returned function renames answer columns back to the
    view's attribute names.
    @raise Unmapped when the view class or relationship has no mapping
    entry. *)

type component_query = {
  component : Ecr.Name.t;  (** the component schema's name *)
  query : Ast.t;
  post : Eval.row list -> Eval.row list;
      (** renames columns to the integrated names and pads attributes
          the component lacks with [Null] *)
}

val to_components :
  Integrate.Mapping.t ->
  integrated:Ecr.Schema.t ->
  Ast.t ->
  component_query list
(** [to_components m ~integrated q] unfolds a query against the
    integrated schema into one query per component class whose extent
    contributes to the queried class (including classes mapped to its
    descendants).  Joined queries keep only components where both the
    relationship and the target class are mapped. *)

val run_components :
  component_query list ->
  stores:(Ecr.Name.t * Instance.Store.t) list ->
  Eval.row list
(** The evaluation half of {!run_global}: runs an already-unfolded plan
    against the component stores (skipping components whose extent a
    broader contributing class of the same schema already covers) and
    outer-unions the answers.  Lets a caller cache the unfolding and
    still share this exact evaluation path. *)

val run_global :
  Integrate.Mapping.t ->
  integrated:Ecr.Schema.t ->
  stores:(Ecr.Name.t * Instance.Store.t) list ->
  Ast.t ->
  Eval.row list
(** Unfolds, evaluates each component query on its store, and returns
    the outer-union of the answers.  A row is a duplicate when
    [Instance.Value.equal] holds column by column with an earlier row
    ([Int 1] and [Real 1.0] are equal); duplicates are dropped and the
    first occurrence keeps its position — the same real-world entity
    reported by two components appears once when the components agree
    on the projected attributes. *)

val covers : Eval.row list -> Eval.row list -> bool
(** [covers supers subs]: every row of [subs] is matched by some row of
    [supers] agreeing on all non-[Null] columns — the containment check
    used when outer-union answers are compared with integrated-store
    answers. *)
