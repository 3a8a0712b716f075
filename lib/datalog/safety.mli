(** Safety (range restriction), Section 6.1 of the paper: variables of
    negated subgoals must occur in positive subgoals of the same rule —
    plus the usual bottom-up conditions: body-atom arguments are terms;
    head, comparison and negated variables are bound by positive subgoals,
    aggregate outputs, or equalities over bound variables; GROUPBY
    literals are well-formed and their local variables do not escape. *)

exception Unsafe of string

(** @raise Unsafe with a message naming the rule and the offence. *)
val check_rule : Ast.rule -> unit

(** [check_query body] checks [body] as an ad-hoc query whose answer
    columns are every variable it binds — those of positive atoms,
    aggregate outputs and binding equalities, in first-binding order (an
    atom's in argument order).  Returns the columns and the checked rule
    [$query$(columns) :- body].
    @raise Unsafe as {!check_rule}. *)
val check_query : Ast.literal list -> string list * Ast.rule

val check_program : Ast.rule list -> unit
