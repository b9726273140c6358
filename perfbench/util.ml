(* Clocks, sample buffers, quantiles and file helpers shared by the
   benchmark's modules. *)

(* Monotonic seconds with nanosecond resolution: gettimeofday's
   microsecond steps are coarser than several of the layers timed. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Wall time of [f ()] in seconds, with its result. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* A growable float array: latency samples are appended from the hot
   loop without allocating a list cell per op. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a' = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a' 0 b.n;
      b.a <- a'
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
  let concat bs = Array.concat (List.map to_array bs)
end

(* Linear-interpolated quantile of an unsorted sample; nan when empty. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float i in
    if i + 1 >= n then s.(n - 1) else s.(i) +. (frac *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile xs 0.5
let median_l l = median (Array.of_list l)

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float n

(* The median of [f ()] over at least [min_reps] and at most [max_reps]
   calls, stopping once [budget_s] seconds are spent: by default 3 to 9
   calls in 6 s, the repeated set-up measurements. *)
let repeat_median ?(min_reps = 3) ?(max_reps = 9) ?(budget_s = 6.) f =
  let t0 = now () in
  let rec go acc =
    let acc = f () :: acc in
    let k = List.length acc in
    if k >= max_reps || (k >= min_reps && now () -. t0 > budget_s) then median_l acc
    else go acc
  in
  go []

(* Median wall time of [f ()] in seconds over 1 to 3 calls within 2 s:
   the per-layer set-up probes. *)
let median_time f =
  repeat_median ~min_reps:1 ~max_reps:3 ~budget_s:2. (fun () -> fst (timed f))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let file_size path =
  match Unix.stat path with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

let fail fmt = Printf.ksprintf failwith fmt

(* Whether a response line answers ["ok": true]. *)
let is_ok line =
  match Obs.Json.of_string line with
  | Ok v -> Obs.Json.member "ok" v = Some (Obs.Json.Bool true)
  | Error _ -> false
