module Json = Satin_obs.Json
module Stats = Satin_engine.Stats

let identity () =
  Json.Obj
    [
      ("fingerprint", Json.String (Satin_store.Fingerprint.hex ()));
      ( "config_hash",
        Json.String
          (Digest.to_hex
             (Digest.string
                (Satin_store.Key.canonical (Satin_store.Key.ambient ())))) );
    ]

let stats (s : Stats.t) : Json.t =
  if Stats.is_empty s then Json.Obj [ ("count", Json.Int 0) ]
  else
    Json.Obj
      [
        ("count", Json.Int (Stats.count s));
        ("mean", Json.float (Stats.mean s));
        ("min", Json.float (Stats.min s));
        ("max", Json.float (Stats.max s));
        ("stddev", Json.float (Stats.stddev s));
        ("p50", Json.float (Stats.quantile s 0.50));
        ("p90", Json.float (Stats.quantile s 0.90));
        ("p99", Json.float (Stats.quantile s 0.99));
      ]

let write_document file ~subcommands results =
  let doc =
    Json.Obj
      [
        ("schema", Json.String "satin-bench/v1");
        ("identity", identity ());
        ( "subcommands",
          Json.List (List.map (fun s -> Json.String s) subcommands) );
        ("results", Json.Obj results);
      ]
  in
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string doc ^ "\n"))
