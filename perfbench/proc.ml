(* Child processes: started with [Unix.create_process_env] (never
   [Unix.fork], which OCaml forbids once a domain pool exists), reaped
   with wait4 so each one's own CPU time and peak memory are known. *)

external wait4 : int -> int * float * float * int = "perfbench_wait4"

type usage = {
  code : int;  (* exit code; minus the signal number if killed *)
  wall_s : float;
  cpu_s : float;  (* user + system, every thread *)
  rss_mb : float;  (* peak resident set *)
}

let live : int list ref = ref []

(* The programs run at their defaults: no inherited QDP_* setting. *)
let env =
  lazy
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"QDP_" kv))
          (Array.to_list (Unix.environment ()))))

let open_out_fd file =
  Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
    0o644

let devnull_in = lazy (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)

(* [spawn ~stdout ~stderr prog args] starts [prog] with [args] (argv
   without argv0), output redirected to the given files. *)
let spawn ~stdout ~stderr prog args =
  let out = open_out_fd stdout in
  let err = if stderr = stdout then out else open_out_fd stderr in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        if err != out then Unix.close err)
      (fun () ->
        Unix.create_process_env prog
          (Array.of_list (prog :: args))
          (Lazy.force env) (Lazy.force devnull_in) out err)
  in
  live := pid :: !live;
  pid

let reap ~started pid =
  let code, user, sys, maxrss_kb = wait4 pid in
  live := List.filter (( <> ) pid) !live;
  {
    code;
    wall_s = Unix.gettimeofday () -. started;
    cpu_s = user +. sys;
    rss_mb = float_of_int maxrss_kb /. 1024.;
  }

(* [run ~stdout ~stderr prog args] runs one child to completion. *)
let run ~stdout ~stderr prog args =
  let started = Unix.gettimeofday () in
  let pid = spawn ~stdout ~stderr prog args in
  reap ~started pid

(* Kill and reap whatever is still running (error paths). *)
let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (wait4 pid) with Failure _ -> ())
    !live;
  live := []

let read_file file = In_channel.with_open_bin file In_channel.input_all
