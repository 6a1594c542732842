module Json = Dt_util.Json
module Log = Dt_util.Log
module Uarch = Dt_refcpu.Uarch

module Spec = struct
  type t = {
    shards : int;
    socket_dir : string;
    router_socket : string;
    uarch : Uarch.uarch;
    router : Router.config;
    serve_flags : string list;
    shard_faults : (int * string) list;
    restart_max : int;
    restart_backoff : float;
    restart_cap : float;
    grace : float;
  }

  let shard_name i = Printf.sprintf "shard%d" i
  let shard_socket t i = Filename.concat t.socket_dir (shard_name i ^ ".sock")

  let serve_flags_of_json = function
    | None -> []
    | Some (Json.Obj members) ->
        List.concat_map
          (fun (k, v) ->
            let flag = "--" ^ k in
            match v with
            | Json.Bool true -> [ flag ]
            | Json.Bool false -> []
            | Json.Num _ | Json.Str _ ->
                [ flag; (match v with
                         | Json.Str s -> s
                         | v -> Json.to_string v) ]
            | _ ->
                invalid_arg
                  (Printf.sprintf
                     "fleet spec: serve.%s must be a number, string or bool" k))
          members
    | Some _ -> invalid_arg "fleet spec: \"serve\" must be an object"

  let shard_faults_of_json shards = function
    | None -> []
    | Some (Json.Obj members) ->
        List.map
          (fun (k, v) ->
            let idx =
              match int_of_string_opt k with
              | Some i when i >= 0 && i < shards -> i
              | _ ->
                  invalid_arg
                    (Printf.sprintf
                       "fleet spec: shard_faults key %S is not a shard index" k)
            in
            (idx, Json.get_str ~ctx:("shard_faults." ^ k) v))
          members
    | Some _ -> invalid_arg "fleet spec: \"shard_faults\" must be an object"

  let of_json j =
    let ctx = "fleet spec" in
    let shards =
      match Json.member "shards" j with
      | Some v -> Json.get_int ~ctx:"shards" v
      | None -> invalid_arg "fleet spec: missing \"shards\""
    in
    if shards < 1 then invalid_arg "fleet spec: shards must be >= 1";
    let socket_dir =
      match Json.member "socket_dir" j with
      | Some v -> Json.get_str ~ctx:"socket_dir" v
      | None -> invalid_arg "fleet spec: missing \"socket_dir\""
    in
    let router_socket =
      Json.mem_str ~ctx "router_socket"
        ~default:(Filename.concat socket_dir "router.sock")
        j
    in
    let uarch_name = Json.mem_str ~ctx "uarch" ~default:"haswell" j in
    let uarch =
      match Uarch.uarch_of_name uarch_name with
      | Some u -> u
      | None ->
          invalid_arg
            (Printf.sprintf "fleet spec: unknown uarch %S" uarch_name)
    in
    let d = Router.default_config in
    let sub key defaults =
      match Json.member key j with
      | None -> Json.Obj []
      | Some (Json.Obj _ as o) -> o
      | Some _ ->
          invalid_arg
            (Printf.sprintf "fleet spec: %S must be an object%s" key defaults)
    in
    let breaker = sub "breaker" "" in
    let health = sub "health" "" in
    let hd = d.Router.health in
    let router =
      {
        Router.vnodes = Json.mem_int ~ctx "vnodes" ~default:d.Router.vnodes j;
        replicas = Json.mem_int ~ctx "replicas" ~default:d.Router.replicas j;
        reply_budget =
          Json.mem_num ~ctx "reply_budget_s" ~default:d.Router.reply_budget j;
        probe_interval =
          Json.mem_num ~ctx "probe_interval_s" ~default:d.Router.probe_interval j;
        probe_budget =
          Json.mem_num ~ctx "probe_budget_s" ~default:d.Router.probe_budget j;
        max_inflight =
          Json.mem_int ~ctx "max_inflight" ~default:d.Router.max_inflight j;
        max_pending =
          Json.mem_int ~ctx "max_pending" ~default:d.Router.max_pending j;
        breaker_threshold =
          Json.mem_int ~ctx:"breaker" "threshold"
            ~default:d.Router.breaker_threshold breaker;
        breaker_cooldown =
          Json.mem_num ~ctx:"breaker" "cooldown_s"
            ~default:d.Router.breaker_cooldown breaker;
        health =
          {
            Health.eject_after =
              Json.mem_int ~ctx:"health" "eject_after"
                ~default:hd.Health.eject_after health;
            rejoin_after =
              Json.mem_int ~ctx:"health" "rejoin_after"
                ~default:hd.Health.rejoin_after health;
            cooldown_base =
              Json.mem_num ~ctx:"health" "cooldown_s"
                ~default:hd.Health.cooldown_base health;
            cooldown_cap =
              Json.mem_num ~ctx:"health" "cooldown_cap_s"
                ~default:hd.Health.cooldown_cap health;
          };
      }
    in
    let restart = sub "restart" "" in
    {
      shards;
      socket_dir;
      router_socket;
      uarch;
      router;
      serve_flags = serve_flags_of_json (Json.member "serve" j);
      shard_faults = shard_faults_of_json shards (Json.member "shard_faults" j);
      restart_max = Json.mem_int ~ctx:"restart" "max" ~default:5 restart;
      restart_backoff =
        Json.mem_num ~ctx:"restart" "backoff_s" ~default:0.2 restart;
      restart_cap = Json.mem_num ~ctx:"restart" "cap_s" ~default:2.0 restart;
      grace = Json.mem_num ~ctx:"restart" "grace_s" ~default:2.0 restart;
    }

  let load path = of_json (Json.parse_file path)

  let example =
    {|{
  "shards": 3,
  "socket_dir": "/tmp/difftune_fleet",
  "router_socket": "/tmp/difftune_fleet/router.sock",
  "replicas": 2,
  "vnodes": 64,
  "reply_budget_s": 0.25,
  "probe_interval_s": 0.5,
  "probe_budget_s": 0.25,
  "max_inflight": 64,
  "max_pending": 4096,
  "breaker": { "threshold": 3, "cooldown_s": 1.0 },
  "health": { "eject_after": 3, "rejoin_after": 2,
              "cooldown_s": 1.0, "cooldown_cap_s": 30.0 },
  "uarch": "haswell",
  "serve": { "queue": 256, "batch": 16 },
  "restart": { "max": 5, "backoff_s": 0.2, "cap_s": 2.0, "grace_s": 2.0 },
  "shard_faults": {}
}
|}
end

(* ---- supervision ---- *)

type child = {
  idx : int;
  mutable pid : int option;
  mutable restarts : int;
  mutable next_start : float;
  mutable gave_up : bool;
}

(* A shard's faults are its own spec entry, passed on its command line;
   nothing else arms it. *)
let spawn_shard spec ~cli idx =
  let faults =
    match List.assoc_opt idx spec.Spec.shard_faults with
    | Some faults -> [ "--faults"; faults ]
    | None -> []
  in
  let args =
    [ cli; "serve"; "--socket"; Spec.shard_socket spec idx; "--uarch";
      Uarch.uarch_name spec.Spec.uarch ]
    @ spec.Spec.serve_flags @ faults
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close devnull with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.create_process cli (Array.of_list args) devnull Unix.stdout
        Unix.stderr)

let restart_delay spec restarts =
  let doublings = Int.max 0 (Int.min (restarts - 1) 30) in
  Float.min spec.Spec.restart_cap
    (spec.Spec.restart_backoff *. Float.of_int (1 lsl doublings))

let supervise spec ~cli children now =
  List.iter
    (fun c ->
      (match c.pid with
      | Some pid -> (
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> ()
          | _, status ->
              let describe =
                match status with
                | Unix.WEXITED n -> Printf.sprintf "exited %d" n
                | Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
                | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n
              in
              Log.warn "fleet: %s %s" (Spec.shard_name c.idx) describe;
              c.pid <- None;
              c.restarts <- c.restarts + 1;
              if c.restarts > spec.Spec.restart_max then begin
                c.gave_up <- true;
                Log.warn "fleet: %s gave up after %d restarts"
                  (Spec.shard_name c.idx) spec.Spec.restart_max
              end
              else begin
                let delay = restart_delay spec c.restarts in
                c.next_start <- now +. delay;
                Log.status "fleet: restarting %s in %.2fs (attempt %d/%d)"
                  (Spec.shard_name c.idx) delay c.restarts
                  spec.Spec.restart_max
              end
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> c.pid <- None)
      | None -> ());
      if c.pid = None && (not c.gave_up) && c.next_start <= now then
        c.pid <- Some (spawn_shard spec ~cli c.idx))
    children

let terminate spec children =
  let live () = List.filter_map (fun c -> c.pid) children in
  List.iter
    (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    (live ());
  let deadline = Unix.gettimeofday () +. spec.Spec.grace in
  let rec wait_all () =
    List.iter
      (fun c ->
        match c.pid with
        | Some pid -> (
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> ()
            | _ -> c.pid <- None
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> c.pid <- None)
        | None -> ())
      children;
    if live () <> [] && Unix.gettimeofday () < deadline then begin
      Unix.sleepf 0.02;
      wait_all ()
    end
  in
  wait_all ();
  List.iter
    (fun c ->
      match c.pid with
      | Some pid ->
          Log.warn "fleet: %s ignored SIGTERM; killing" (Spec.shard_name c.idx);
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid)
           with Unix.Unix_error (Unix.ECHILD, _, _) -> ());
          c.pid <- None
      | None -> ())
    children

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      match Unix.mkdir d 0o755 with
      | () -> ()
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let launch spec ~cli =
  mkdir_p spec.Spec.socket_dir;
  let names = List.init spec.Spec.shards Spec.shard_name in
  let sockets =
    List.init spec.Spec.shards (fun i ->
        (Spec.shard_name i, Spec.shard_socket spec i))
  in
  let children =
    List.init spec.Spec.shards (fun idx ->
        { idx; pid = None; restarts = 0; next_start = 0.0; gave_up = false })
  in
  let router =
    Router.create spec.Spec.router ~uarch:spec.Spec.uarch ~shards:names
  in
  Log.status "fleet: %d shards under %s, router on %s" spec.Spec.shards
    spec.Spec.socket_dir spec.Spec.router_socket;
  Fun.protect
    ~finally:(fun () -> terminate spec children)
    (fun () ->
      Loop.run router ~listen:spec.Spec.router_socket ~shards:sockets
        ~on_tick:(supervise spec ~cli children) ());
  (* final aggregated report *)
  print_endline "cluster report:";
  List.iter
    (fun (k, v) -> Printf.printf "  %s=%s\n" k v)
    (Router.stats_pairs router);
  let restarts = List.fold_left (fun a c -> a + c.restarts) 0 children in
  Printf.printf "  fleet.restarts=%d\n%!" restarts
