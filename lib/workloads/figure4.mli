(** The exact scenario of the paper's Figure 4.

    A synthetic executable and profile constructed so that the profile
    entry for EXAMPLE reproduces the published figure number for
    number: callers contributing 4/10 and 6/10 of its calls (0.20/1.20
    and 0.30/1.80 seconds), 4 self-recursive calls (10+4), a child in
    a cycle called 20/40 times showing 1.50/1.00, a child called 1/5
    showing 0.00/0.50, a statically-discovered child with 0/5, a total
    of 0.50 self + 3.00 descendants, and 41.5% of total run time. *)

val objfile : Objcode.Objfile.t
(** Ten five-instruction routines: CALLER1, CALLER2, EXAMPLE, SUB1,
    SUB1B (the cycle partner), SUB2, SUB3, DEPTH1 (the cycle's
    external child), DEPTH2 (SUB2's child), OTHER (the second caller
    of the cycle and of SUB2/SUB3). *)

val gmon : Gmon.t
(** Histogram ticks: 26 CALLER1, 30 EXAMPLE, 120 SUB1, 60 SUB1B, 120
    DEPTH1, 150 DEPTH2 — 506 ticks at 60 Hz, 8.43 seconds. Arc
    records as in the figure (the EXAMPLE -> SUB3 arc is static only
    and absent here). *)

val expected_total_seconds : float
(** 506 / 60. *)
