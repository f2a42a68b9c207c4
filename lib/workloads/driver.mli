(** Compile-and-run conveniences shared by tests, examples, and the
    benchmark harness. *)

type run = {
  objfile : Objcode.Objfile.t;
  machine : Vm.Machine.t;  (** in halted state *)
  gmon : Gmon.t;  (** the profile extracted at exit *)
}

val compile :
  ?options:Compile.Codegen.options -> Programs.t -> (Objcode.Objfile.t, string) result

val run :
  ?options:Compile.Codegen.options ->
  ?config:Vm.Machine.config ->
  Programs.t ->
  (run, string) result
(** Compile with profiling prologues (unless overridden), execute to
    completion, extract the profile. [Error] on a compile failure or a
    VM fault. *)

val analyze :
  ?options:Compile.Codegen.options ->
  ?config:Vm.Machine.config ->
  ?report:Gprof_core.Report.options ->
  Programs.t ->
  (Gprof_core.Report.t * run, string) result
(** [run] followed by the gprof post-processor. *)
