type env = (string * int) list
type t = env -> int array * Bytes.t option

(* Registrations happen at module-initialization time (single domain);
   the mutex guards against lookups from parallel sweeps racing a late
   registration. *)
let lock = Mutex.create ()
let table : (string * t) list ref = ref []

let register name provider =
  Mutex.protect lock (fun () ->
      if List.mem_assoc name !table then
        invalid_arg
          (Printf.sprintf "Template_provider.register: duplicate name %S" name);
      table := !table @ [ (name, provider) ])

let find name = Mutex.protect lock (fun () -> List.assoc_opt name !table)
let names () = Mutex.protect lock (fun () -> List.map fst !table)
