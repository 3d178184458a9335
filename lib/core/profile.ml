module Table = Dvf_util.Table
module Row = Dvf_util.Row

type row = {
  workload : string;
  cache : Cachesim.Config.t;
  structure : string;
  dvf : float;
  n_ha : float;
  bytes : int;
  time : float;
}

let row =
  Row.make "profile row"
    Row.[
      field "workload" Str (fun r -> r.workload);
      field "cache" (Row Cachesim.Config.row) (fun r -> r.cache);
      field "structure" Str (fun r -> r.structure);
      field "dvf" Float (fun r -> r.dvf);
      field "n_ha" Float (fun r -> r.n_ha);
      field "bytes" Int (fun r -> r.bytes);
      field "time" Float (fun r -> r.time);
    ]
    (fun workload cache structure dvf n_ha bytes time ->
      { workload; cache; structure; dvf; n_ha; bytes; time })

let profile_instance ?(machine = Perf.default_machine) ?(fit = Ecc.fit Ecc.No_ecc)
    ~cache (instance : Workload.instance) =
  let spec = instance.Workload.spec in
  let time = Perf.app_time machine ~cache ~flops:instance.Workload.flops spec in
  let app = Dvf.of_spec ~cache ~fit ~time spec in
  let structure_rows =
    List.map
      (fun (s : Dvf.structure_dvf) ->
        {
          workload = instance.Workload.workload;
          cache;
          structure = s.Dvf.name;
          dvf = s.Dvf.dvf;
          n_ha = s.Dvf.n_ha;
          bytes = s.Dvf.bytes;
          time;
        })
      app.Dvf.structures
  in
  structure_rows
  @ [
      {
        workload = instance.Workload.workload;
        cache;
        structure = instance.Workload.workload;
        dvf = app.Dvf.total;
        n_ha = List.fold_left (fun acc r -> acc +. r.n_ha) 0.0 structure_rows;
        bytes = Access_patterns.App_spec.total_bytes spec;
        time;
      };
    ]

let run_all ?machine ?fit ?(caches = Cachesim.Config.profiling_set)
    ?workloads () =
  let workloads =
    match workloads with Some ws -> ws | None -> Workloads.all ()
  in
  List.concat_map
    (fun workload ->
      let instance = Workloads.profiling_instance workload in
      List.concat_map
        (fun cache -> profile_instance ?machine ?fit ~cache instance)
        caches)
    workloads

let to_table rows =
  let t =
    Table.create
      ~title:"Fig. 5 - DVF profiling (per data structure, per cache)"
      [
        ("kernel", Table.Left); ("structure", Table.Left);
        ("cache", Table.Left); ("S_d", Table.Right); ("N_ha", Table.Right);
        ("T (s)", Table.Right); ("DVF", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.workload; r.structure; r.cache.Cachesim.Config.name;
          Format.asprintf "%a" Dvf_util.Units.pp_bytes r.bytes;
          Table.cell_float r.n_ha; Table.cell_float r.time;
          Table.cell_float r.dvf;
        ])
    rows;
  t
