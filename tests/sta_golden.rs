//! Golden values for static timing and leakage on the paper's two case
//! studies — the 16-bit multiplier and the tm16 core — at the 0.6 V
//! operating point and at 0.3 V, deep in the sub-threshold sweep.
//!
//! Floats are pinned as their bit patterns, so a change to `scpg-sta` or
//! `scpg-power` that moves any result by one ulp fails here. The
//! `reproduce` outputs round to four decimals and would miss such drift,
//! and the serve suites compare the server against the same library code.

use scpg_circuits::{generate_cpu, generate_multiplier};
use scpg_liberty::{Library, PvtCorner};
use scpg_netlist::Netlist;
use scpg_power::{PowerAnalyzer, SubthresholdCurve};
use scpg_units::{Energy, Time, Voltage};

struct Golden {
    mv: f64,
    t_eval: u64,
    min_period: u64,
    t_setup: u64,
    t_hold: u64,
    /// `PowerAnalyzer::leakage(None).total` at this supply.
    leakage: u64,
}

/// Largest setup (150 ps) and hold (50 ps) requirement in the kit.
const T_SETUP: u64 = 0x3de4_9da7_e361_ce4c;
const T_HOLD: u64 = 0x3dcb_7cdf_d9d7_bdbb;

const MULTIPLIER: [Golden; 2] = [
    Golden {
        mv: 600.0,
        t_eval: 0x3e59_3c82_ab0c_4d79,
        min_period: 0x3e59_65bd_fad3_1116,
        t_setup: T_SETUP,
        t_hold: T_HOLD,
        leakage: 0x3efd_b26a_0b66_af2d,
    },
    Golden {
        mv: 300.0,
        t_eval: 0x3e86_9cfc_58ff_b663,
        min_period: 0x3e86_a223_c2f8_8ed7,
        t_setup: T_SETUP,
        t_hold: T_HOLD,
        leakage: 0x3ed5_154a_3943_408f,
    },
];

/// Instance indices along the multiplier's critical path, launch flop
/// first; the same at both supplies.
const MULTIPLIER_PATH: [u32; 46] = [
    17, 49, 65, 66, 67, 98, 99, 130, 131, 162, 163, 194, 195, 226, 227, 258, 259, 290, 291, 322,
    323, 354, 355, 386, 387, 418, 419, 450, 451, 482, 483, 514, 515, 516, 517, 518, 519, 520, 521,
    522, 523, 524, 525, 526, 527, 528,
];

const CPU: [Golden; 2] = [
    Golden {
        mv: 600.0,
        t_eval: 0x3e5e_9c1c_02f2_ebb3,
        min_period: 0x3e5e_c557_52b9_af50,
        t_setup: T_SETUP,
        t_hold: T_HOLD,
        leakage: 0x3f20_cf6f_ba2e_2ba3,
    },
    Golden {
        mv: 300.0,
        t_eval: 0x3e8b_6d99_d2ef_aa7c,
        min_period: 0x3e8b_72c1_3ce8_82f0,
        t_setup: T_SETUP,
        t_hold: T_HOLD,
        leakage: 0x3ef7_de66_471a_7b9a,
    },
];

const CPU_PATH: [u32; 53] = [
    2144, 3147, 3162, 3163, 3164, 3194, 3195, 3225, 3226, 3256, 3257, 3287, 3288, 3318, 3319, 3349,
    3350, 3380, 3381, 3411, 3412, 3442, 3443, 3473, 3474, 3504, 3505, 3535, 3536, 3566, 3567, 3597,
    3598, 3599, 3600, 3601, 3602, 3603, 3604, 3605, 3606, 3607, 3608, 3609, 3610, 3611, 3642, 3720,
    3752, 1948, 2013, 2045, 2077,
];

fn check(design: &str, nl: &Netlist, lib: &Library, golden: &[Golden], path: &[u32]) {
    // The supply sweep resolves the netlist once for all its points and
    // must land on the same bits as a fresh analysis per supply.
    let volts: Vec<Voltage> = golden.iter().map(|g| Voltage::from_mv(g.mv)).collect();
    let curve = SubthresholdCurve::sweep(nl, lib, Energy::from_pj(1.0), &volts).unwrap();
    for (g, p) in golden.iter().zip(curve.points()) {
        let period = Time::new(f64::from_bits(g.min_period));
        assert_eq!(p.f_max, period.frequency(), "{design} sweep at {} mV", g.mv);
        assert_eq!(
            p.p_leak.value().to_bits(),
            g.leakage,
            "{design} sweep leakage"
        );
    }
    for g in golden {
        let v = Voltage::from_mv(g.mv);
        let t = scpg_sta::analyze(nl, lib, v).unwrap();
        let at = format!("{design} at {} mV", g.mv);
        assert_eq!(
            t.t_eval.value().to_bits(),
            g.t_eval,
            "{at}: t_eval {}",
            t.t_eval
        );
        assert_eq!(
            t.min_period.value().to_bits(),
            g.min_period,
            "{at}: min_period {}",
            t.min_period
        );
        assert_eq!(t.t_setup.value().to_bits(), g.t_setup, "{at}: t_setup");
        assert_eq!(t.t_hold.value().to_bits(), g.t_hold, "{at}: t_hold");
        let got: Vec<u32> = t.critical_path.iter().map(|id| id.index() as u32).collect();
        assert_eq!(got, path, "{at}: critical path");
        let leak = PowerAnalyzer::new(nl, lib, PvtCorner::at_voltage(v))
            .unwrap()
            .leakage(None)
            .total;
        assert_eq!(leak.value().to_bits(), g.leakage, "{at}: leakage {leak}");
    }
}

#[test]
fn multiplier_timing_and_leakage_are_pinned() {
    let lib = Library::ninety_nm();
    let (nl, _) = generate_multiplier(&lib, 16);
    check(
        "16-bit multiplier",
        &nl,
        &lib,
        &MULTIPLIER,
        &MULTIPLIER_PATH,
    );
}

#[test]
fn cpu_timing_and_leakage_are_pinned() {
    let lib = Library::ninety_nm();
    let (nl, _) = generate_cpu(&lib);
    check("tm16 core", &nl, &lib, &CPU, &CPU_PATH);
}
