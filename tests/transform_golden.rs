//! Golden values for the SCPG netlist transform on the paper's two case
//! studies — the 16-bit multiplier and the tm16 core — at the smallest
//! (X1) and largest (X8) sleep header, and for the `ctsg` technique's
//! clustered rewrite of the 8-bit multiplier and tm16, which shares the
//! transform's isolation step.
//!
//! Each case pins the isolation-cell count and the SHA-256 of the `{:?}`
//! dump of the transformed netlist's instances, nets and ports (plus,
//! for SCPG, the SHA-256 of the split Verilog). Any change to which nets
//! get clamped, to instance or net naming, or to the order in which the
//! transform appends objects fails here, long before the `reproduce`
//! digests would notice.

use scpg::transform::{ScpgOptions, ScpgTransform};
use scpg_circuits::{generate_cpu, generate_multiplier};
use scpg_jobs::sha256_hex;
use scpg_json::Json;
use scpg_liberty::{HeaderSize, Library, PvtCorner};
use scpg_netlist::{emit_verilog_split, Netlist};
use scpg_technique::{resolve_params, CtsgTechnique, PrepareContext, Technique};
use scpg_units::Energy;

struct Golden {
    header: HeaderSize,
    isolation_cells: usize,
    /// `sha256_hex` of `emit_verilog_split`.
    split_verilog: &'static str,
    /// `sha256_hex` of `format!("{:?}{:?}{:?}", instances, nets, ports)`.
    structure: &'static str,
}

const MULTIPLIER: [Golden; 2] = [
    Golden {
        header: HeaderSize::X1,
        isolation_cells: 64,
        split_verilog: "7f8e95875e08b5602e2c3e409b119e5043048113dd085cc8339898a2349439a3",
        structure: "c5f5d4ab8127d0a4173f8d04647086badcd5133a815de869d2005e8db9e212c5",
    },
    Golden {
        header: HeaderSize::X8,
        isolation_cells: 64,
        split_verilog: "9eb0d9aa14480433aba456cebabf22f7e175e9080a38bc6c9041de7d3b8ec5d8",
        structure: "4e303f4cf5a73f17139d455118513df9abd611ce4a0b6c98a4f0d40d699d720e",
    },
];

const CPU: [Golden; 2] = [
    Golden {
        header: HeaderSize::X1,
        isolation_cells: 480,
        split_verilog: "a20666b03a6de4caf02dcc000551df856995d5d64ee05caae0e9714a9a3847f5",
        structure: "cc38e108159ed44f8d7aa5e6038655589835cfb4f3902b8209094599d9a27f82",
    },
    Golden {
        header: HeaderSize::X8,
        isolation_cells: 480,
        split_verilog: "be3e7c372a3a94c225af73ca70848764766823896839079d15e55f629fc34981",
        structure: "7790698c22dd3b71145af0f42a99a3c3be810fc1b1c7cd12a093969e7c585168",
    },
];

/// SHA-256 of the `{:?}` dump of a netlist's instances, nets and ports.
fn structure_digest(nl: &Netlist) -> String {
    sha256_hex(format!("{:?}{:?}{:?}", nl.instances(), nl.nets(), nl.ports()).as_bytes())
}

fn check(design: &str, nl: &Netlist, lib: &Library, goldens: &[Golden]) {
    for g in goldens {
        let options = ScpgOptions {
            header_size: g.header,
        };
        let scpg = ScpgTransform::new(lib).apply(nl, "clk", &options).unwrap();
        let out = &scpg.netlist;
        let split = sha256_hex(emit_verilog_split(out, lib).unwrap().as_bytes());
        let structure = structure_digest(out);
        let got = (scpg.isolation_cells, split.as_str(), structure.as_str());
        let want = (g.isolation_cells, g.split_verilog, g.structure);
        assert_eq!(got, want, "{design} at {:?}", g.header);
    }
}

#[test]
fn multiplier_transform_is_pinned() {
    let lib = Library::ninety_nm();
    let (nl, _) = generate_multiplier(&lib, 16);
    check("16-bit multiplier", &nl, &lib, &MULTIPLIER);
}

#[test]
fn cpu_transform_is_pinned() {
    let lib = Library::ninety_nm();
    let (nl, _) = generate_cpu(&lib);
    check("tm16 core", &nl, &lib, &CPU);
}

struct CtsgGolden {
    clusters: u32,
    header: &'static str,
    isolation_cells: usize,
    /// [`structure_digest`] of the prepared model's netlist.
    structure: &'static str,
}

const CTSG_MULTIPLIER: [CtsgGolden; 6] = [
    CtsgGolden {
        clusters: 1,
        header: "x2",
        isolation_cells: 32,
        structure: "2af9c4167732e04a21989adadd4e3d344f094da9541929a7c5b96157f86658ff",
    },
    CtsgGolden {
        clusters: 1,
        header: "auto",
        isolation_cells: 32,
        structure: "2af9c4167732e04a21989adadd4e3d344f094da9541929a7c5b96157f86658ff",
    },
    CtsgGolden {
        clusters: 4,
        header: "x2",
        isolation_cells: 32,
        structure: "52d3d18fc5223ef7857785c4ff3c771200f8405dbe4efdbcbc0fcf2d9350b376",
    },
    CtsgGolden {
        clusters: 4,
        header: "auto",
        isolation_cells: 32,
        structure: "3d3adf073238be88bf14d309e282e58638669cb6f76008987d34b7096694e412",
    },
    CtsgGolden {
        clusters: 8,
        header: "x2",
        isolation_cells: 32,
        structure: "a159c404e8f2c6fe12e0f253a25a94591b54c843f4aac8667abfd4bd30fb7209",
    },
    CtsgGolden {
        clusters: 8,
        header: "auto",
        isolation_cells: 32,
        structure: "78cb965d732da0a31d7d1cfff569917b7b441dc65c4e5b9835993160e9ebcd79",
    },
];

const CTSG_CPU: [CtsgGolden; 6] = [
    CtsgGolden {
        clusters: 1,
        header: "x2",
        isolation_cells: 480,
        structure: "97a1915129c6c0de655d58b0f2ca2f8d703d4ae7902a7ffc4f74e8ce332c8a06",
    },
    CtsgGolden {
        clusters: 1,
        header: "auto",
        isolation_cells: 480,
        structure: "87028ae15945b7af8bffc1d65e8e3d300e68c37def333a1828a424d3e9db64c5",
    },
    CtsgGolden {
        clusters: 4,
        header: "x2",
        isolation_cells: 480,
        structure: "a1c37a8a1f70deea8a8371f4bf1565c084b45f99a12f02c84cc063557fded629",
    },
    CtsgGolden {
        clusters: 4,
        header: "auto",
        isolation_cells: 480,
        structure: "ac99b9a8151b782798cc84d52c4417d25a87b5b7dd15612a6283015db342a109",
    },
    CtsgGolden {
        clusters: 8,
        header: "x2",
        isolation_cells: 480,
        structure: "d1c72d00ebd719adb25735587272158258970bbfc61bb4dc13bf3cab8ca8e6ed",
    },
    CtsgGolden {
        clusters: 8,
        header: "auto",
        isolation_cells: 480,
        structure: "83f5bd937b011b812d8f0cb61b1e2d4606e649c972701f35aa0a7c6cdbcad1d8",
    },
];

fn check_ctsg(design: &str, nl: &Netlist, lib: &Library, goldens: &[CtsgGolden]) {
    let ctx = PrepareContext {
        lib,
        baseline: nl,
        clock: "clk",
        e_dyn: Energy::from_pj(2.3),
        corner: PvtCorner::default(),
    };
    for g in goldens {
        let body = Json::parse(&format!(
            r#"{{"clusters": {}, "header": "{}"}}"#,
            g.clusters, g.header
        ))
        .unwrap();
        let params = resolve_params(CtsgTechnique.params(), Some(&body)).unwrap();
        let model = CtsgTechnique.prepare(&ctx, &params).unwrap();
        let out = model.netlist();
        let isolation_cells = out
            .instances()
            .iter()
            .filter(|inst| inst.name().starts_with("ctsg_iso_"))
            .count();
        let structure = structure_digest(out);
        let got = (isolation_cells, structure.as_str());
        let want = (g.isolation_cells, g.structure);
        assert_eq!(
            got, want,
            "{design} at clusters {} header {}",
            g.clusters, g.header
        );
    }
}

#[test]
fn ctsg_multiplier_is_pinned() {
    let lib = Library::ninety_nm();
    let (nl, _) = generate_multiplier(&lib, 8);
    check_ctsg("8-bit multiplier", &nl, &lib, &CTSG_MULTIPLIER);
}

#[test]
fn ctsg_cpu_is_pinned() {
    let lib = Library::ninety_nm();
    let (nl, _) = generate_cpu(&lib);
    check_ctsg("tm16 core", &nl, &lib, &CTSG_CPU);
}
