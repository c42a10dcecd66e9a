//! Secure DNN inference (§VII-D scenario ①): a *user enclave* holds the
//! confidential model; a *driver enclave* owns the Gemmini accelerator. The
//! two communicate through protected shared enclave memory, and the
//! accelerator reaches its command/data region through DMA-whitelist
//! windows configured by EMS — no software encryption on the data path.
//!
//! Run with: `cargo run --example secure_inference`

use hypertee_repro::fabric::dma::DeviceId;
use hypertee_repro::fabric::ihub::DmaOp;
use hypertee_repro::hypertee::machine::Machine;
use hypertee_repro::hypertee::manifest::EnclaveManifest;
use hypertee_repro::hypertee::sdk::ShmPerm;
use hypertee_repro::workloads::dnn;

const GEMMINI: DeviceId = DeviceId(1);

fn main() {
    let mut machine = Machine::boot_default();
    let manifest =
        EnclaveManifest::parse("heap = 32M\nstack = 128K\nhost_shared = 1M").expect("manifest");

    // The user enclave holds the model; the driver enclave owns Gemmini.
    let user = machine
        .create_enclave(0, &manifest, b"DNN user enclave (model+weights)")
        .unwrap();
    let driver = machine
        .create_enclave(1, &manifest, b"Gemmini driver enclave")
        .unwrap();

    // Local attestation before sharing (§V-A): the driver proves its
    // identity to the user enclave via the report key.
    let user_meas = {
        machine.enter(0, user).unwrap();
        let q = machine.attest(0, user, b"").unwrap();
        machine.exit(0).unwrap();
        q.enclave_measurement
    };
    let report = machine
        .ems
        .local_report(driver.0, &user_meas)
        .expect("driver report");
    assert!(machine.ems.local_verify(user.0, &report).expect("verify"));
    println!("local attestation: user enclave verified the driver enclave");

    // User↔driver control channel: encrypted shared enclave memory.
    machine.enter(0, user).unwrap();
    let ctrl = machine
        .shmget(0, 64 * 1024, ShmPerm::ReadWrite, false)
        .unwrap();
    machine.shmshr(0, ctrl, driver, ShmPerm::ReadWrite).unwrap();
    let user_ctrl_va = machine.shmat(0, ctrl, user).unwrap();

    // Driver↔Gemmini data region: device-shared (plaintext, bitmap + DMA
    // whitelist protected — a device cannot decrypt MKTME traffic).
    machine.exit(0).unwrap();
    machine.enter(1, driver).unwrap();
    let data = machine
        .shmget(1, 256 * 1024, ShmPerm::ReadWrite, true)
        .unwrap();
    let driver_data_va = machine.shmat(1, data, driver).unwrap();
    machine
        .ems
        .eshm_grant_device(
            &mut hypertee_repro::ems::runtime::EmsContext {
                sys: &mut machine.sys,
                hub: &mut machine.hub,
                os_frames: &mut machine.os,
            },
            driver.0,
            data,
            GEMMINI,
            true,
        )
        .expect("grant Gemmini DMA");
    println!("driver enclave granted Gemmini a DMA window over the data region");

    // Inference loop: the user enclave sends layer commands + activations
    // through the control channel; the driver stages them into the data
    // region; Gemmini DMA-reads them and DMA-writes results back.
    machine.exit(1).unwrap();
    machine.enter(0, user).unwrap();
    let activations: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
    machine
        .enclave_store(0, user_ctrl_va, &activations)
        .unwrap();
    machine.exit(0).unwrap();

    machine.enter(1, driver).unwrap();
    let driver_ctrl_va = machine
        .shmat(1, ctrl, user)
        .expect("driver attaches after grant");
    let mut staged = vec![0u8; activations.len()];
    machine
        .enclave_load(1, driver_ctrl_va, &mut staged)
        .unwrap();
    machine.enclave_store(1, driver_data_va, &staged).unwrap();
    machine.exit(1).unwrap();

    // Gemmini consumes its input via DMA and writes back a "result".
    let data_frame = machine.ems.shm(data).unwrap().frames[0];
    let mut device_buf = vec![0u8; activations.len()];
    assert!(machine.hub.dma_access(
        GEMMINI,
        &mut machine.sys.phys,
        data_frame.base(),
        DmaOp::Read(&mut device_buf),
    ));
    assert_eq!(
        device_buf, activations,
        "accelerator sees the staged activations"
    );
    let result: Vec<u8> = device_buf.iter().map(|b| b.wrapping_mul(3)).collect();
    assert!(machine.hub.dma_access(
        GEMMINI,
        &mut machine.sys.phys,
        data_frame.base(),
        DmaOp::Write(&result),
    ));
    println!(
        "Gemmini round trip complete: {} activation bytes processed",
        result.len()
    );

    // A different device gets nothing (whitelist).
    let mut probe = vec![0u8; 64];
    assert!(!machine.hub.dma_access(
        DeviceId(99),
        &mut machine.sys.phys,
        data_frame.base(),
        DmaOp::Read(&mut probe),
    ));
    println!("rogue device blocked by the DMA whitelist");

    // Performance story (Fig. 12): what this plumbing buys.
    println!("\nFig. 12 projection for this data path:");
    for model in dnn::models() {
        println!(
            "  {:<16} conventional crypto share {:>5.1}%  ->  HyperTEE speedup {:>5.1}x",
            model.name,
            dnn::conventional(&model).crypto_share() * 100.0,
            dnn::speedup(&model),
        );
    }
}
