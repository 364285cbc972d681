//! Golden values for the SCPG netlist transform on the paper's two case
//! studies — the 16-bit multiplier and the tm16 core — at the smallest
//! (X1) and largest (X8) sleep header.
//!
//! Each case pins the isolation-cell count, the SHA-256 of the split
//! Verilog and the SHA-256 of the `{:?}` dump of the transformed
//! netlist's instances, nets and ports. Any change to which nets get
//! clamped, to instance or net naming, or to the order in which the
//! transform appends objects fails here, long before the `reproduce`
//! digests would notice.

use scpg::transform::{ScpgOptions, ScpgTransform};
use scpg_circuits::{generate_cpu, generate_multiplier};
use scpg_jobs::sha256_hex;
use scpg_liberty::{HeaderSize, Library};
use scpg_netlist::{emit_verilog_split, Netlist};

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

fn check(design: &str, nl: &Netlist, lib: &Library, goldens: &[Golden]) {
    for g in goldens {
        let options = ScpgOptions {
            header_size: g.header,
        };
        let scpg = ScpgTransform::new(lib).apply(nl, "clk", &options).unwrap();
        let out = &scpg.netlist;
        let split = sha256_hex(emit_verilog_split(out, lib).unwrap().as_bytes());
        let structure = sha256_hex(
            format!("{:?}{:?}{:?}", out.instances(), out.nets(), out.ports()).as_bytes(),
        );
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
