(* The closed-loop load: one thread per connection, each sending its
   next frame only after the previous response has been read — the way
   every caller of Client.roundtrip behaves.  Latency is taken at the
   client, from sending the frame to having read the whole response. *)

open Util

type conn = {
  id : int;
  mutable client : Server.Client.t option;  (** [None] once broken *)
  mutable cursor : int;  (** index of this connection's next op *)
  mutable attempted : int;
  mutable failed : int;
}

let connect addr n =
  List.init n (fun id ->
      {
        id;
        client = Some (Server.Client.connect ~timeout_ms:60_000 addr);
        cursor = 0;
        attempted = 0;
        failed = 0;
      })

let close conns =
  List.iter
    (fun c ->
      Option.iter Server.Client.close c.client;
      c.client <- None)
    conns

type window = {
  ops : int;  (** ops completed in the window *)
  wall_s : float;
  lat_ms : float array;
  done_s : float array;  (** completion time of each op, from the start *)
  cpu_s : float;  (** this process's CPU over the window *)
}

(* Runs every connection for [duration] seconds.  [frame ~conn i] is
   connection [conn]'s [i]-th frame; [check ~conn i frame response]
   says whether the response is correct.  A transport failure counts as a
   failed op and retires the connection. *)
let window conns ~duration ~frame ~check =
  let cpu0 = Proc.self_cpu_s () in
  let t0 = now () in
  let deadline = t0 +. duration in
  let run c =
    let lat = Fbuf.create () and fin = Fbuf.create () in
    let rec loop () =
      match c.client with
      | Some cl when now () < deadline ->
          let i = c.cursor in
          let f = frame ~conn:c.id i in
          let ts = now () in
          let resp =
            try Some (Server.Client.roundtrip cl f)
            with Server.Client.Connection_error _ -> None
          in
          let te = now () in
          Fbuf.add lat ((te -. ts) *. 1000.);
          Fbuf.add fin (te -. t0);
          c.attempted <- c.attempted + 1;
          c.cursor <- i + 1;
          (match resp with
          | Some r -> if not (check ~conn:c.id i f r) then c.failed <- c.failed + 1
          | None ->
              c.failed <- c.failed + 1;
              Server.Client.close cl;
              c.client <- None);
          loop ()
      | _ -> ()
    in
    loop ();
    (lat, fin)
  in
  let results = ref [] in
  let mu = Mutex.create () in
  let threads =
    List.map
      (fun c ->
        Thread.create
          (fun () ->
            let lat = run c in
            Mutex.protect mu (fun () -> results := lat :: !results))
          ())
      conns
  in
  List.iter Thread.join threads;
  let wall_s = now () -. t0 in
  let lat_ms = Fbuf.concat (List.map fst !results) in
  let done_s = Fbuf.concat (List.map snd !results) in
  { ops = Array.length lat_ms; wall_s; lat_ms; done_s; cpu_s = Proc.self_cpu_s () -. cpu0 }

let ops_per_s w = float w.ops /. w.wall_s

(* The window cut into slices by completion time, between consecutive
   [cuts] (seconds from the start; ops outside the first and last cut
   are dropped): each slice's throughput and latency quantiles. *)
type slice = { rate : float; p50 : float; p95 : float; p99 : float }

let slices w ~cuts =
  let cuts = Array.of_list cuts in
  let parts = Array.length cuts - 1 in
  let bufs = Array.init parts (fun _ -> Fbuf.create ()) in
  Array.iteri
    (fun i t ->
      let k = ref 0 in
      while !k < parts && t >= cuts.(!k + 1) do
        incr k
      done;
      if !k < parts && t >= cuts.(0) then Fbuf.add bufs.(!k) w.lat_ms.(i))
    w.done_s;
  List.init parts (fun k ->
      let xs = Fbuf.to_array bufs.(k) in
      {
        rate = float (Array.length xs) /. (cuts.(k + 1) -. cuts.(k));
        p50 = quantile xs 0.5;
        p95 = quantile xs 0.95;
        p99 = quantile xs 0.99;
      })

(* [parts] equal slices of a window of [duration] seconds. *)
let even_cuts ~duration ~parts = List.init (parts + 1) (fun k -> duration *. float k /. float parts)
