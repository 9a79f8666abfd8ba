open Stx_tir
open Stx_sim

type t = {
  name : string;
  source : string;
  description : string;
  contention : string;
  contention_source : string;
  build : unit -> Ir.program;
  args : scale:float -> Machine.setup_env -> threads:int -> int array array;
}

let scaled scale n = max 1 (int_of_float (Float.round (scale *. float_of_int n)))

let split ~total ~threads = max 1 (total / max 1 threads)

let spec ?(instrument = true) ?anchor_mode ?(scale = 1.0) ?pc_bits t =
  let prog = t.build () in
  let compiled =
    Stx_compiler.Pipeline.compile ?pc_bits ?mode:anchor_mode ~instrument prog
  in
  {
    Machine.compiled;
    Machine.thread_main = "main";
    Machine.thread_args = (fun env ~threads -> t.args ~scale env ~threads);
  }

(* ------------------------------------------------------------------ *)
(* request-driven serving                                              *)

type request = { rq_ab : int; rq_args : int array }

type service = {
  sv_bench : t;
  sv_key_range : int;
  sv_setup :
    key_range:int ->
    abs:(string -> int) ->
    Machine.setup_env ->
    threads:int ->
    (write:bool -> key:int -> request);
}

let service_entry = "stx_serve_idle"

let service_spec ?(instrument = true) ?key_range sv =
  let key_range = Option.value key_range ~default:sv.sv_key_range in
  if key_range < 1 then
    invalid_arg "Workload.service_spec: key_range must be positive";
  let prog = sv.sv_bench.build () in
  (* the serving entry point: each core's own program is a no-op — all
     real work arrives through the machine's request injector *)
  let b = Builder.create prog service_entry ~params:[] in
  Builder.ret b None;
  ignore (Builder.finish b);
  let compiled = Stx_compiler.Pipeline.compile ~instrument prog in
  let abs name =
    match
      Array.find_opt (fun a -> a.Ir.ab_name = name) prog.Ir.atomics
    with
    | Some a -> a.Ir.ab_id
    | None ->
      invalid_arg ("Workload.service_spec: unknown atomic block " ^ name)
  in
  let synth = ref None in
  let spec =
    {
      Machine.compiled;
      Machine.thread_main = service_entry;
      Machine.thread_args =
        (fun env ~threads ->
          synth := Some (sv.sv_setup ~key_range ~abs env ~threads);
          Array.make threads [||]);
    }
  in
  (spec, synth)
