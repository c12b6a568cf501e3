(* Scratch directories for test cases, under the system temp directory.
   [make prefix] names a fresh directory that does not exist yet; [cases]
   wraps a suite so that, when each case ends, every directory [make]
   named during it is removed — whether the case passed or raised — and a
   run of the suite leaves none behind. *)

let made = ref []
let counter = ref 0

let remove dir =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let make prefix =
  incr counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) !counter)
  in
  remove dir;
  made := dir :: !made;
  dir

let cases suite =
  let clean () =
    List.iter remove !made;
    made := []
  in
  List.map
    (fun (name, speed, f) -> (name, speed, fun () -> Fun.protect ~finally:clean f))
    suite
