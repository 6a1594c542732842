type t = {
  name : string;
  corpus_size : int;
  noise : float;
  engine : Dt_difftune.Engine.config;
  opentuner_parity : int;
  seeds : int list;
}

let log_progress msg = Dt_util.Log.status "    [%s]" msg

let smoke =
  {
    name = "smoke";
    corpus_size = 220;
    noise = 0.01;
    engine =
      {
        Dt_difftune.Engine.default_config with
        seed = 3;
        sim_multiplier = 3;
        surrogate_passes = 0.5;
        batch = 64;
        table_batch = 16;
        token_hidden = 12;
        instr_hidden = 12;
        token_layers = 1;
        instr_layers = 1;
        max_train_block_len = 10;
        table_passes = 3.0;
        log = log_progress;
      };
    opentuner_parity = 1;
    seeds = [ 3 ];
  }

let quick =
  {
    name = "quick";
    corpus_size = 1400;
    noise = 0.01;
    engine =
      {
        Dt_difftune.Engine.default_config with
        seed = 3;
        sim_multiplier = 8;
        surrogate_passes = 3.0;
        batch = 128;
        table_batch = 48;
        token_hidden = 32;
        instr_hidden = 32;
        token_layers = 2;
        instr_layers = 2;
        max_train_block_len = 14;
        table_passes = 20.0;
        log = log_progress;
      };
    opentuner_parity = 3;
    seeds = [ 3 ];
  }

let full =
  {
    name = "full";
    corpus_size = 2000;
    noise = 0.01;
    engine =
      {
        Dt_difftune.Engine.default_config with
        seed = 3;
        sim_multiplier = 10;
        surrogate_passes = 4.0;
        batch = 128;
        token_hidden = 32;
        instr_hidden = 32;
        token_layers = 2;
        instr_layers = 2;
        max_train_block_len = 16;
        table_passes = 30.0;
        log = log_progress;
      };
    opentuner_parity = 5;
    seeds = [ 3; 4; 5 ];
  }
