(* In-memory spans for the traced run.  Each span has a name, start
   and end times, the span that caused it and an optional request id;
   they are written out as JSON lines when the run ends, and a layer's
   self time is derived from them. *)

type t = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int option;
  rid : int option;
}

let spans : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let fresh () =
  let id = !next_id in
  incr next_id;
  id

(* [record ?rid ~name ~start ~stop ()] adds a span measured
   elsewhere (a child process, a request) under the innermost open
   span. *)
let record ?rid ~name ~start ~stop () =
  let id = fresh () in
  spans := { id; name; start; stop; parent = List.nth_opt !stack 0; rid } :: !spans

(* [with_ ?rid name f] times [f ()] as a child of the innermost open
   span. *)
let with_ ?rid name f =
  let id = fresh () in
  let parent = List.nth_opt !stack 0 in
  let start = Unix.gettimeofday () in
  stack := id :: !stack;
  let close () =
    stack := List.tl !stack;
    spans :=
      { id; name; start; stop = Unix.gettimeofday (); parent; rid } :: !spans
  in
  Fun.protect ~finally:close f

let all () = List.rev !spans

let duration s = s.stop -. s.start

(* Length of the union of [intervals]. *)
let covered intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of [s] within [all]: its duration minus the part of its
   interval that its direct children cover. *)
let self_time all s =
  let kids =
    List.filter_map
      (fun c ->
        if c.parent = Some s.id then
          Some (Float.max c.start s.start, Float.min c.stop s.stop)
        else None)
      all
  in
  duration s -. covered (List.filter (fun (a, b) -> b > a) kids)

(* Summed duration of every span called [name]. *)
let total all name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0. all

(* Summed self time per span name, in order of first appearance. *)
let self_times all =
  List.fold_left
    (fun acc s ->
      let t = self_time all s in
      match List.assoc_opt s.name acc with
      | Some t' -> (s.name, t +. t') :: List.remove_assoc s.name acc
      | None -> (s.name, t) :: acc)
    [] all
  |> List.rev

let to_json s =
  let opt = function None -> "null" | Some i -> string_of_int i in
  Printf.sprintf
    "{\"id\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"parent\":%s,\"rid\":%s}"
    s.id s.name s.start s.stop (opt s.parent) (opt s.rid)

let write_jsonl file =
  let oc = open_out file in
  List.iter (fun s -> output_string oc (to_json s ^ "\n")) (all ());
  close_out oc
