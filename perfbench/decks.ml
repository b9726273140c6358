(* Workload inputs: seeded scenarios rendered to the files sit_serve
   loads, and the request frames each workload sends.  Everything here
   is a pure function of the seed. *)

open Ecr
module Scenario = Workload.Scenario

let frame ?view ?text op = Server.Wire.request_to_line ?view ?text op

(* ---- scenarios ------------------------------------------------------ *)

(* The federation each workload runs on; recorded in every result.  It
   is pinned rather than drawn from the run's seed: the work per op of a
   generated federation varies by a fifth or more from one scenario seed
   to the next, which would drown the run-to-run comparison.  The run's
   seed draws the request stream instead. *)
let scenario_seed = 42

let params = function
  | `Small ->
      (* storm 1200: three storm phases of 1200 reads hold ~600 distinct
         filter texts, well past the 128-entry plan cache *)
      { Scenario.default_params with seed = scenario_seed; storm = 1200 }
  | `Scan ->
      {
        Scenario.default_params with
        seed = scenario_seed;
        schemas = 6;
        concepts = 24;
        population = 4000;
      }
  | `Session ->
      {
        Scenario.default_params with
        seed = scenario_seed;
        schemas = 8;
        concepts = 20;
        population = 40;
      }

(* Even views are eager and odd ones lazy: manual views would serve
   stale extents once writes arrive. *)
let view_policy i = if i mod 2 = 0 then "eager" else "lazy"

(* The view definitions every node receives on its command line. *)
let view_flags (sc : Scenario.t) =
  List.concat
    (List.mapi
       (fun i (v : Scenario.view_def) ->
         [
           "--view";
           Printf.sprintf "%s@%s:%s=%s" v.Scenario.v_name
             (view_policy i)
             v.Scenario.v_base v.Scenario.v_source;
         ])
       sc.Scenario.views)

(* ---- read decks ----------------------------------------------------- *)

let pick rng a = a.(Random.State.int rng (Array.length a))

let class_scans (sc : Scenario.t) =
  List.concat_map
    (fun s ->
      List.map
        (fun (oc : Object_class.t) ->
          frame "query"
            ~view:(Name.to_string (Schema.name s))
            ~text:(Printf.sprintf "select * from %s" (Name.to_string oc.Object_class.name)))
        (Schema.objects s))
    sc.Scenario.schemas
  |> Array.of_list

let global_scans (sc : Scenario.t) =
  Schema.objects sc.Scenario.result.Integrate.Result.schema
  |> List.map (fun (oc : Object_class.t) ->
         frame "query"
           ~text:(Printf.sprintf "select * from %s" (Name.to_string oc.Object_class.name)))
  |> Array.of_list

let view_reads (sc : Scenario.t) =
  List.map (fun (v : Scenario.view_def) -> frame "query" ~view:v.Scenario.v_name) sc.Scenario.views
  |> Array.of_list

(* Entity classes with a string key and at least one other attribute:
   the targets of keyed point queries and of the write stream. *)
type keyed = {
  schema : string;
  cls : string;
  key : string;
  attrs : Attribute.t list;
  set_attr : Attribute.t;
}

let keyed_classes (sc : Scenario.t) =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun (oc : Object_class.t) ->
          match oc.Object_class.kind with
          | Object_class.Category _ -> None
          | Object_class.Entity_set -> (
              let attrs = oc.Object_class.attributes in
              match
                ( List.find_opt
                    (fun (a : Attribute.t) ->
                      a.Attribute.key && a.Attribute.domain = Domain.Char_string)
                    attrs,
                  List.find_opt (fun (a : Attribute.t) -> not a.Attribute.key) attrs )
              with
              | Some k, Some a ->
                  Some
                    {
                      schema = Name.to_string (Schema.name s);
                      cls = Name.to_string oc.Object_class.name;
                      key = Name.to_string k.Attribute.name;
                      attrs;
                      set_attr = a;
                    }
              | _ -> None))
        (Schema.objects s))
    sc.Scenario.schemas

let point_query k value =
  frame "query" ~view:k.schema
    ~text:(Printf.sprintf "select * from %s where %s = \"%s\"" k.cls k.key value)

(* Point queries on keys present in the component data, per class. *)
let existing_points (sc : Scenario.t) =
  List.filter_map
    (fun k ->
      match
        List.find_opt
          (fun (s, _) -> Name.to_string (Schema.name s) = k.schema)
          sc.Scenario.stores
      with
      | None -> None
      | Some (_, store) ->
          let cls = Name.v k.cls and key = Name.v k.key in
          let values =
            Instance.Store.extent cls store
            |> Instance.Store.Oid.Set.elements
            |> List.filter_map (fun oid ->
                   match Instance.Store.value oid key store with
                   | Instance.Value.Str s when not (String.contains s '"') -> Some s
                   | _ -> None)
          in
          if values = [] then None
          else Some (Array.of_list (List.map (point_query k) values)))
    (keyed_classes sc)
  |> Array.of_list

(* read-small: the scenario's own read mix (Scenario.read_frames, the
   storm phases: view scans, filtered view queries, materialized reads,
   global unfoldings, view and global rewrites in equal shares) plus one
   keyed point query per six storm frames, on a key drawn uniformly from
   the component data.  The point-query share and the uniform key draw
   are this benchmark's choice, not a measured mix.  The seed shuffles
   the deck and draws the keys. *)
let read_small ~seed (sc : Scenario.t) =
  let rng = Random.State.make [| seed; 1 |] in
  let storm = Array.of_list (Scenario.read_frames sc) in
  let points = existing_points sc in
  let deck =
    Array.append storm
      (if points = [||] then [||]
       else Array.init (Array.length storm / 6) (fun _ -> pick rng (pick rng points)))
  in
  for i = Array.length deck - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = deck.(i) in
    deck.(i) <- deck.(j);
    deck.(j) <- x
  done;
  deck

(* read-scan: full unfoldings and scans only. *)
let read_scan ~seed (sc : Scenario.t) ~n =
  let rng = Random.State.make [| seed; 2 |] in
  let pool = Array.concat [ global_scans sc; class_scans sc; view_reads sc ] in
  Array.init n (fun _ -> pick rng pool)

(* ---- the write stream ----------------------------------------------- *)

(* One literal of an attribute's domain; [salt] keeps values unique. *)
let render_value ~salt (a : Attribute.t) =
  match a.Attribute.domain with
  | Domain.Char_string | Domain.Named _ -> Printf.sprintf "\"n%d\"" salt
  | Domain.Integer -> string_of_int (90000 + salt)
  | Domain.Real -> Printf.sprintf "%d.5" salt
  | Domain.Boolean -> "true"
  | Domain.Date -> "\"2026-08-09\""
  | Domain.Enum (v :: _) -> Printf.sprintf "\"%s\"" v
  | Domain.Enum [] -> "null"

(* Connection [conn]'s writes touch only keys of its own ("pb<conn>_j"),
   so every write's response and the final state are independent of
   how the two connections interleave.  Key [j] is inserted, modified,
   then deleted (even j) or modified again (odd j): every write
   affects exactly one entity. *)
let writes ~seed sc =
  match keyed_classes sc with
  | [] -> Util.fail "scenario has no keyed entity class to write to"
  | l ->
      (* the seed orders the classes the keys cycle through *)
      let rng = Random.State.make [| seed; 3 |] in
      let tagged = List.map (fun k -> (Random.State.bits rng, k)) l in
      Array.of_list (List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) tagged))

let key_of w ~conn j =
  let k = w.(((conn * 7) + j) mod Array.length w) in
  (k, Printf.sprintf "pb%d_%d" conn j)

let write_frame w ~conn i =
  let j = i / 3 in
  let k, key = key_of w ~conn j in
  let salt = (conn * 1_000_000) + (i * 3) in
  let text =
    match i mod 3 with
    | 0 ->
        let assigns =
          List.map
            (fun (a : Attribute.t) ->
              let n = Name.to_string a.Attribute.name in
              if n = k.key then Printf.sprintf "%s = \"%s\"" n key
              else Printf.sprintf "%s = %s" n (render_value ~salt a))
            k.attrs
        in
        Printf.sprintf "insert into %s { %s }" k.cls (String.concat ", " assigns)
    | 2 when j mod 2 = 0 -> Printf.sprintf "delete from %s where %s = \"%s\"" k.cls k.key key
    | _ ->
        Printf.sprintf "update %s set %s = %s where %s = \"%s\"" k.cls
          (Name.to_string k.set_attr.Attribute.name)
          (render_value ~salt k.set_attr) k.key key
  in
  frame "update" ~view:k.schema ~text

(* The point query that reads key [j] of [conn] back. *)
let readback w ~conn j =
  let k, key = key_of w ~conn j in
  point_query k key

(* ---- the DDA session ------------------------------------------------ *)

(* The schema pair whose ranked listing the DDA sees after a directive. *)
let directive_pair = function
  | Integrate.Script.Equiv (a, b) -> (a.Qname.Attr.owner.Qname.schema, b.Qname.Attr.owner.Qname.schema)
  | Integrate.Script.Object_assertion (a, _, b)
  | Integrate.Script.Rel_assertion (a, _, b)
  | Integrate.Script.Rename (a, b, _) ->
      (a.Qname.schema, b.Qname.schema)
