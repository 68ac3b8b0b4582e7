open Rtlsat_rtl
module Bmc = Rtlsat_bmc.Bmc

type t = {
  circuit : Ir.circuit;
  prop : Ir.node;
  bound : int;
  semantics : Bmc.semantics;
}

let make circuit ~prop ~bound ~semantics =
  if not (Ir.is_bool prop) then invalid_arg "Case.make: property must be Boolean";
  if bound < 1 then invalid_arg "Case.make: bound must be >= 1";
  { circuit; prop; bound; semantics }

let instance t =
  Bmc.make t.circuit ~prop:t.prop ~bound:t.bound ~semantics:t.semantics ()

let semantics_name = function
  | Bmc.Final -> "final"
  | Bmc.Any -> "any"
  | Bmc.Never -> "never"
  | Bmc.First -> "first"

let semantics_of_name = function
  | "final" -> Bmc.Final
  | "any" -> Bmc.Any
  | "never" -> Bmc.Never
  | s -> failwith (Printf.sprintf "fuzz-case: unknown semantics %S" s)

let to_string t =
  let c = t.circuit in
  let header =
    Printf.sprintf "# fuzz-case bound=%d semantics=%s\n" t.bound
      (semantics_name t.semantics)
  in
  (* print with the property exported as port "prop", restoring the
     circuit's own output list afterwards *)
  let saved = c.Ir.outputs in
  (match List.assoc_opt "prop" saved with
   | Some p when p == t.prop -> ()
   | _ ->
     c.Ir.outputs <-
       ("prop", t.prop) :: List.filter (fun (port, _) -> port <> "prop") saved);
  let body = Text.to_string c in
  c.Ir.outputs <- saved;
  header ^ body

let of_string text =
  let bound = ref 1 and semantics = ref Bmc.Final in
  let directive line =
    match String.split_on_char ' ' (String.trim line)
          |> List.filter (fun s -> s <> "")
    with
    | "#" :: "fuzz-case" :: fields ->
      List.iter
        (fun field ->
           match String.split_on_char '=' field with
           | [ "bound"; v ] ->
             (match int_of_string_opt v with
              | Some b when b >= 1 -> bound := b
              | _ -> failwith (Printf.sprintf "fuzz-case: bad bound %S" v))
           | [ "semantics"; v ] -> semantics := semantics_of_name v
           | _ -> failwith (Printf.sprintf "fuzz-case: unknown directive field %S" field))
        fields
    | _ -> ()
  in
  List.iter directive (String.split_on_char '\n' text);
  let circuit = Text.parse text in
  let prop =
    match List.assoc_opt "prop" circuit.Ir.outputs with
    | Some p -> p
    | None ->
      (match List.rev circuit.Ir.outputs with
       | (_, p) :: _ -> p
       | [] -> failwith "fuzz-case: no output port to use as property")
  in
  if not (Ir.is_bool prop) then failwith "fuzz-case: property output is not Boolean";
  { circuit; prop; bound = !bound; semantics = !semantics }

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
