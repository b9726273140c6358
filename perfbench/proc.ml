(* Daemon processes: every sit_serve node runs out of process, with
   every flag given on its command line and SIT_JOBS removed from its
   environment (the daemon's --jobs default reads it). *)

open Util

type node = { pid : int; port : int; log : string }

let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"SIT_JOBS=" kv))
  |> Array.of_list

(* Every daemon not yet reaped, so a failing run still stops them all. *)
let live : int list ref = ref []

let reaped pid = live := List.filter (( <> ) pid) !live

let spawn ~exe ~log args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let inp = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close inp)
      (fun () ->
        Unix.create_process_env exe (Array.of_list (exe :: args)) (child_env ())
          inp out out)
  in
  live := pid :: !live;
  pid

let marker = "listening on port "

(* The port the daemon printed on stderr, once the whole line is out. *)
let find_port text =
  let rec search i =
    if i + String.length marker > String.length text then None
    else if String.sub text i (String.length marker) = marker then
      let j = i + String.length marker in
      match String.index_from_opt text j '\n' with
      | Some k -> int_of_string_opt (String.sub text j (k - j))
      | None -> None
    else search (i + 1)
  in
  search 0

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
      reaped pid;
      true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      reaped pid;
      true

let kill_pid pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  reaped pid

type pending = { p_pid : int; p_log : string }

let launch ~exe ~log args = { p_pid = spawn ~exe ~log args; p_log = log }

(* Blocks until a launched daemon has bound its port: session load,
   integration, migration and the --view definitions all happen before
   sit_serve prints it. *)
let ready { p_pid = pid; p_log = log } =
  let t0 = now () in
  let rec wait () =
    let text = try read_file log with Sys_error _ -> "" in
    match find_port text with
    | Some port -> { pid; port; log }
    | None ->
        if exited pid then fail "sit_serve exited during startup:\n%s" text;
        if now () -. t0 > 120. then begin
          kill_pid pid;
          fail "sit_serve did not bind a port within 120 s:\n%s" text
        end;
        Unix.sleepf 0.001;
        wait ()
  in
  wait ()

let start ~exe ~log args = ready (launch ~exe ~log args)

let addr n = Server.Wire.Tcp ("127.0.0.1", n.port)

let kill9 n = kill_pid n.pid
let kill_all () = List.iter kill_pid !live

(* SIGTERM drains the daemon (and writes its --metrics report); a node
   that has not exited within 10 s is killed. *)
let stop n =
  (try Unix.kill n.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = now () in
  let rec wait () =
    if exited n.pid then ()
    else if now () -. t0 > 10. then kill9 n
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait ()

(* User+system CPU seconds of a process, all threads, from
   /proc/<pid>/stat (clock ticks at the Linux USER_HZ of 100). *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> nan
  | text -> (
      let after = String.rindex text ')' + 2 in
      let fields =
        String.split_on_char ' ' (String.sub text after (String.length text - after))
      in
      match (List.nth_opt fields 11, List.nth_opt fields 12) with
      | Some u, Some s -> float (int_of_string u + int_of_string s) /. 100.
      | _ -> nan)

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* One request on a fresh connection, decoded. *)
let request ?view ?text n op =
  let c = Server.Client.connect ~timeout_ms:30_000 (addr n) in
  Fun.protect
    ~finally:(fun () -> Server.Client.close c)
    (fun () -> Server.Client.request c ?view ?text op)

let int_field path json =
  match Obs.Json.find path json with
  | Some (Obs.Json.Int i) -> i
  | _ -> fail "no integer at %s in %s" (String.concat "." path) (Obs.Json.to_string json)

let float_field path json =
  match Obs.Json.find path json with
  | Some (Obs.Json.Float f) -> f
  | Some (Obs.Json.Int i) -> float i
  | _ -> nan

(* Polls [f] every millisecond until it holds; fails after [timeout_s]. *)
let eventually ?(timeout_s = 60.) what f =
  let t0 = now () in
  let rec go () =
    if f () then ()
    else if now () -. t0 > timeout_s then fail "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()
