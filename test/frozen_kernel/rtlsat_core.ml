(* the kernel the frozen simplifier (Hsimp_ref) was written against *)
module State = State_ref
