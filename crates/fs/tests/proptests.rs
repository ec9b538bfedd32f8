//! Property tests: CoW file data against a flat `Vec<u8>` model, and
//! snapshot isolation of whole views under random operation sequences.

use std::fmt::Write as _;

use lwsnap_fs::{
    FileData, FsView, OpenFlags, Volume, O_APPEND, O_CREAT, O_RDONLY, O_RDWR, O_TRUNC, O_WRONLY,
    SEEK_CUR, SEEK_SET,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum FileOp {
    Write { at: u64, data: Vec<u8> },
    Truncate { len: u64 },
    Snapshot,
    Restore,
}

fn file_op() -> impl Strategy<Value = FileOp> {
    prop_oneof![
        4 => (0u64..20_000, proptest::collection::vec(any::<u8>(), 1..300))
            .prop_map(|(at, data)| FileOp::Write { at, data }),
        2 => (0u64..25_000).prop_map(|len| FileOp::Truncate { len }),
        1 => Just(FileOp::Snapshot),
        1 => Just(FileOp::Restore),
    ]
}

/// Paths the view operations touch: two files, a directory and a file
/// inside it.
const PATHS: [&str; 4] = ["/a", "/b", "/d", "/d/a"];

/// Descriptors the view operations name: the console streams, and the
/// first few a branch can open.
const FDS: u32 = 7;

const OPEN_FLAGS: [u32; 4] = [
    O_RDONLY,
    O_RDWR | O_CREAT,
    O_WRONLY | O_CREAT | O_TRUNC,
    O_WRONLY | O_APPEND,
];

/// Whole-view operations: the file syscalls a branch makes, plus taking
/// and restoring snapshots of the view.
#[derive(Debug, Clone)]
enum ViewOp {
    Open { path: usize, flags: u32 },
    Write { fd: u32, data: Vec<u8> },
    Read { fd: u32, len: usize },
    Seek { fd: u32, to: i64 },
    Close { fd: u32 },
    Unlink { path: usize },
    Mkdir { path: usize },
    Snapshot,
    RestoreLatest,
}

fn view_op() -> impl Strategy<Value = ViewOp> {
    prop_oneof![
        3 => (0..PATHS.len(), 0..OPEN_FLAGS.len())
            .prop_map(|(path, flags)| ViewOp::Open { path, flags: OPEN_FLAGS[flags] }),
        4 => (0..FDS, proptest::collection::vec(any::<u8>(), 1..40))
            .prop_map(|(fd, data)| ViewOp::Write { fd, data }),
        2 => (0..FDS, 1..40usize).prop_map(|(fd, len)| ViewOp::Read { fd, len }),
        1 => (0..FDS, 0i64..64).prop_map(|(fd, to)| ViewOp::Seek { fd, to }),
        1 => (0..FDS).prop_map(|fd| ViewOp::Close { fd }),
        1 => (0..PATHS.len()).prop_map(|path| ViewOp::Unlink { path }),
        1 => (0..PATHS.len()).prop_map(|path| ViewOp::Mkdir { path }),
        1 => Just(ViewOp::Snapshot),
        1 => Just(ViewOp::RestoreLatest),
    ]
}

/// Applies `op` and renders its outcome, so two views given the same
/// operations can be compared call by call.
fn apply_view(view: &mut FsView, snaps: &mut Vec<FsView>, op: &ViewOp) -> String {
    match op {
        ViewOp::Open { path, flags } => {
            format!(
                "{:?}",
                view.open(PATHS[*path], OpenFlags::from_bits(*flags))
            )
        }
        ViewOp::Write { fd, data } => format!("{:?}", view.write(*fd, data)),
        ViewOp::Read { fd, len } => {
            let mut buf = vec![0u8; *len];
            let n = view.read(*fd, &mut buf);
            format!("{n:?} {:?}", &buf[..*n.as_ref().unwrap_or(&0)])
        }
        ViewOp::Seek { fd, to } => format!("{:?}", view.lseek(*fd, *to, SEEK_SET)),
        ViewOp::Close { fd } => format!("{:?}", view.close(*fd)),
        ViewOp::Unlink { path } => format!("{:?}", view.volume_mut().unlink(PATHS[*path])),
        ViewOp::Mkdir { path } => format!("{:?}", view.volume_mut().mkdir(PATHS[*path])),
        ViewOp::Snapshot => {
            snaps.push(view.clone());
            String::new()
        }
        ViewOp::RestoreLatest => {
            if let Some(snap) = snaps.last() {
                view.restore_from(snap);
            }
            String::new()
        }
    }
}

/// Everything a branch can observe of a view: each path's contents, the
/// root listing, each descriptor's target and offset, and the console.
/// Probes a clone, so the view itself is left as it was.
fn observe(view: &FsView) -> String {
    let mut probe = view.clone();
    let mut out = String::new();
    for path in PATHS {
        writeln!(out, "{path}: {:?}", probe.volume().read_file(path)).unwrap();
    }
    writeln!(out, "/: {:?}", probe.volume().readdir("/")).unwrap();
    for fd in 0..FDS {
        let stat = probe.fstat(fd);
        let at = probe.lseek(fd, 0, SEEK_CUR);
        writeln!(out, "fd {fd}: {stat:?} at {at:?}").unwrap();
    }
    writeln!(out, "open: {}", probe.open_fd_count()).unwrap();
    writeln!(out, "stdout: {:?}", probe.stdout_bytes()).unwrap();
    writeln!(out, "stderr: {:?}", probe.stderr_bytes()).unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// FileData behaves exactly like a growable Vec<u8> with zero fill,
    /// including across snapshot/restore.
    #[test]
    fn file_data_matches_vec_model(ops in proptest::collection::vec(file_op(), 1..60)) {
        let mut file = FileData::new();
        let mut model: Vec<u8> = Vec::new();
        let mut snaps: Vec<(FileData, Vec<u8>)> = Vec::new();
        for op in ops {
            match op {
                FileOp::Write { at, data } => {
                    file.write_at(at, &data);
                    let end = at as usize + data.len();
                    if model.len() < end {
                        model.resize(end, 0);
                    }
                    model[at as usize..end].copy_from_slice(&data);
                }
                FileOp::Truncate { len } => {
                    file.truncate(len);
                    model.resize(len as usize, 0);
                }
                FileOp::Snapshot => snaps.push((file.clone(), model.clone())),
                FileOp::Restore => {
                    if let Some((f, m)) = snaps.last() {
                        file = f.clone();
                        model = m.clone();
                    }
                }
            }
            prop_assert_eq!(file.len(), model.len() as u64);
        }
        prop_assert_eq!(file.to_vec(), model);
        // Every snapshot is still intact.
        for (f, m) in &snaps {
            prop_assert_eq!(f.to_vec(), m.clone());
        }
    }

    /// Reads at arbitrary offsets agree with the model.
    #[test]
    fn reads_agree_with_model(
        writes in proptest::collection::vec(
            (0u64..5000, proptest::collection::vec(any::<u8>(), 1..100)), 1..20),
        read_at in 0u64..6000,
        read_len in 1usize..200,
    ) {
        let mut file = FileData::new();
        let mut model: Vec<u8> = Vec::new();
        for (at, data) in &writes {
            file.write_at(*at, data);
            let end = *at as usize + data.len();
            if model.len() < end {
                model.resize(end, 0);
            }
            model[*at as usize..end].copy_from_slice(data);
        }
        let mut buf = vec![0u8; read_len];
        let n = file.read_at(read_at, &mut buf);
        let expected: &[u8] = if (read_at as usize) < model.len() {
            &model[read_at as usize..(read_at as usize + read_len).min(model.len())]
        } else {
            &[]
        };
        prop_assert_eq!(&buf[..n], expected);
    }

    /// A forked FsView's fd offsets, file contents, and new files never
    /// leak into the snapshot it forked from.
    #[test]
    fn view_fork_isolation(
        branch_writes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..50), 1..5),
    ) {
        let mut base = FsView::default();
        base.volume_mut().write_file("/shared", b"original").unwrap();
        let fd = base.open("/shared", OpenFlags::from_bits(O_RDWR)).unwrap();
        let snap = base.clone();

        // Each branch is a fresh clone of the snapshot and scribbles.
        for (i, data) in branch_writes.iter().enumerate() {
            let mut branch = snap.clone();
            branch.write(fd, data).unwrap();
            let new_path = format!("/branch_{i}");
            branch.volume_mut().write_file(&new_path, data).unwrap();
            branch.write(1, b"noise").unwrap();
            // Verify the branch's own view.
            prop_assert!(branch.volume().read_file(&new_path).is_ok());
        }

        // The snapshot never changed.
        prop_assert_eq!(snap.volume().read_file("/shared").unwrap(), b"original");
        prop_assert!(snap.stdout_bytes().is_empty());
        prop_assert_eq!(snap.volume().readdir("/").unwrap().len(), 1);
        // And its fd offset is still at 0.
        let mut check = snap.clone();
        let mut buf = [0u8; 8];
        prop_assert_eq!(check.read(fd, &mut buf).unwrap(), 8);
        prop_assert_eq!(&buf, b"original");
    }

    /// Open-create-write-read cycles round-trip arbitrary content.
    #[test]
    fn open_write_read_roundtrip(content in proptest::collection::vec(any::<u8>(), 0..5000)) {
        let mut view = FsView::default();
        let fd = view.open("/f", OpenFlags::from_bits(O_RDWR | O_CREAT)).unwrap();
        view.write(fd, &content).unwrap();
        view.lseek(fd, 0, lwsnap_fs::SEEK_SET).unwrap();
        let mut back = vec![0u8; content.len() + 16];
        let mut got = Vec::new();
        loop {
            let n = view.read(fd, &mut back).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&back[..n]);
        }
        prop_assert_eq!(got, content);
    }

    /// Restoring a live view in place from a snapshot leaves it
    /// indistinguishable from a fresh clone of that snapshot, now and
    /// under any later operations, and leaves the snapshot as it was.
    #[test]
    fn restore_from_matches_a_fresh_clone(
        before in proptest::collection::vec(view_op(), 0..30),
        between in proptest::collection::vec(view_op(), 0..30),
        after in proptest::collection::vec(view_op(), 0..30),
    ) {
        let mut volume = Volume::new();
        volume.write_file("/a", b"seed").unwrap();
        let mut live = FsView::new(volume);
        let mut snaps = Vec::new();
        for op in &before {
            apply_view(&mut live, &mut snaps, op);
        }
        let snap = live.clone();
        let seen = observe(&snap);
        for op in &between {
            apply_view(&mut live, &mut snaps, op);
        }

        live.restore_from(&snap);
        let mut clone = snap.clone();
        prop_assert_eq!(observe(&live), seen.clone());
        let (mut live_snaps, mut clone_snaps) = (Vec::new(), Vec::new());
        for op in &after {
            prop_assert_eq!(
                apply_view(&mut live, &mut live_snaps, op),
                apply_view(&mut clone, &mut clone_snaps, op),
                "{:?}", op
            );
        }
        prop_assert_eq!(observe(&live), observe(&clone));
        prop_assert_eq!(observe(&snap), seen);
    }
}
