//! Per-execution filesystem views: fd tables and contained console output.
//!
//! An [`FsView`] is the file-side half of an execution snapshot: the volume,
//! the open-file-descriptor table, and the console buffers all clone in
//! O(1)-ish and diverge copy-on-write. A candidate extension step that
//! writes to a file or to stdout mutates *its* view only; discarding the
//! step (backtracking) discards the side effects — the containment property
//! the paper's interposition layer provides.

use std::sync::Arc;

use crate::data::FileData;
use crate::error::FsError;
use crate::volume::{FileKind, InodeId, Metadata, Volume};

/// Open-for-reading flag (`O_RDONLY`/`O_RDWR`).
pub const O_RDONLY: u32 = 0o0;
/// Open-for-writing flag (`O_WRONLY`).
pub const O_WRONLY: u32 = 0o1;
/// Open for reading and writing.
pub const O_RDWR: u32 = 0o2;
/// Create the file if it does not exist.
pub const O_CREAT: u32 = 0o100;
/// With `O_CREAT`, fail if the file exists.
pub const O_EXCL: u32 = 0o200;
/// Truncate the file on open.
pub const O_TRUNC: u32 = 0o1000;
/// All writes append to the end of the file.
pub const O_APPEND: u32 = 0o2000;

/// `lseek` whence: absolute offset.
pub const SEEK_SET: u32 = 0;
/// `lseek` whence: relative to current position.
pub const SEEK_CUR: u32 = 1;
/// `lseek` whence: relative to end of file.
pub const SEEK_END: u32 = 2;

/// Decoded open flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenFlags {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Create if missing.
    pub create: bool,
    /// Fail if it already exists (with `create`).
    pub excl: bool,
    /// Truncate on open.
    pub trunc: bool,
    /// Append mode.
    pub append: bool,
}

impl OpenFlags {
    /// Decodes Linux-style numeric open flags.
    pub fn from_bits(bits: u32) -> OpenFlags {
        let acc = bits & 0o3;
        OpenFlags {
            read: acc == O_RDONLY || acc == O_RDWR,
            write: acc == O_WRONLY || acc == O_RDWR,
            create: bits & O_CREAT != 0,
            excl: bits & O_EXCL != 0,
            trunc: bits & O_TRUNC != 0,
            append: bits & O_APPEND != 0,
        }
    }

    /// Read-only flags.
    pub fn read_only() -> OpenFlags {
        OpenFlags::from_bits(O_RDONLY)
    }

    /// Write-only + create + truncate (like `creat(2)`).
    pub fn write_create() -> OpenFlags {
        OpenFlags::from_bits(O_WRONLY | O_CREAT | O_TRUNC)
    }
}

#[derive(Clone)]
enum FdEntry {
    File {
        inode: InodeId,
        offset: u64,
        flags: OpenFlags,
    },
    Stdin,
    Stdout,
    Stderr,
}

/// A snapshot-friendly byte buffer for captured console output.
#[derive(Clone, Default)]
struct ConsoleBuf(Arc<Vec<u8>>);

impl ConsoleBuf {
    fn push(&mut self, data: &[u8]) {
        Arc::make_mut(&mut self.0).extend_from_slice(data);
    }

    fn bytes(&self) -> &[u8] {
        &self.0
    }
}

/// Points `dst` at `src`'s value, moving no count if it already does.
pub(crate) fn repoint<T>(dst: &mut Arc<T>, src: &Arc<T>) {
    if !Arc::ptr_eq(dst, src) {
        *dst = Arc::clone(src);
    }
}

/// The filesystem state of one execution branch.
///
/// Cloning an `FsView` is the file-side snapshot operation.
#[derive(Clone)]
pub struct FsView {
    vol: Volume,
    /// Shared until mutated: snapshot clones are pure refcount bumps.
    fds: Arc<Vec<Option<FdEntry>>>,
    stdout: ConsoleBuf,
    stderr: ConsoleBuf,
}

impl Default for FsView {
    fn default() -> Self {
        Self::new(Volume::new())
    }
}

impl FsView {
    /// Creates a view of `vol` with fds 0/1/2 preopened as console streams.
    pub fn new(vol: Volume) -> Self {
        FsView {
            vol,
            fds: Arc::new(vec![
                Some(FdEntry::Stdin),
                Some(FdEntry::Stdout),
                Some(FdEntry::Stderr),
            ]),
            stdout: ConsoleBuf::default(),
            stderr: ConsoleBuf::default(),
        }
    }

    /// Makes this view `snap`'s files, descriptors and console output, in
    /// place: each part this view still shares with `snap` is kept as is,
    /// so restoring an untouched branch moves no reference count.
    pub fn restore_from(&mut self, snap: &FsView) {
        self.vol.restore_from(&snap.vol);
        repoint(&mut self.fds, &snap.fds);
        repoint(&mut self.stdout.0, &snap.stdout.0);
        repoint(&mut self.stderr.0, &snap.stderr.0);
    }

    /// The underlying volume (read access).
    pub fn volume(&self) -> &Volume {
        &self.vol
    }

    /// The underlying volume (mutable access, e.g. for test setup).
    pub fn volume_mut(&mut self) -> &mut Volume {
        &mut self.vol
    }

    /// Console output captured by this branch so far.
    pub fn stdout_bytes(&self) -> &[u8] {
        self.stdout.bytes()
    }

    /// Stderr output captured by this branch so far.
    pub fn stderr_bytes(&self) -> &[u8] {
        self.stderr.bytes()
    }

    /// Number of open descriptors (diagnostics).
    pub fn open_fd_count(&self) -> usize {
        self.fds.iter().filter(|fd| fd.is_some()).count()
    }

    fn alloc_fd(&mut self, entry: FdEntry) -> u32 {
        let fds = Arc::make_mut(&mut self.fds);
        for (i, slot) in fds.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(entry);
                return i as u32;
            }
        }
        fds.push(Some(entry));
        (fds.len() - 1) as u32
    }

    fn entry(&self, fd: u32) -> Result<&FdEntry, FsError> {
        self.fds
            .get(fd as usize)
            .and_then(Option::as_ref)
            .ok_or(FsError::BadFd)
    }

    fn entry_mut(&mut self, fd: u32) -> Result<&mut FdEntry, FsError> {
        Arc::make_mut(&mut self.fds)
            .get_mut(fd as usize)
            .and_then(Option::as_mut)
            .ok_or(FsError::BadFd)
    }

    /// Opens `path` with `flags`, returning the new fd.
    pub fn open(&mut self, path: &str, flags: OpenFlags) -> Result<u32, FsError> {
        let inode = if flags.create {
            self.vol.create_file(path, flags.excl)?
        } else {
            let id = self.vol.resolve(path)?;
            if self.vol.stat_inode(id)?.kind == FileKind::Dir && flags.write {
                return Err(FsError::IsDir);
            }
            id
        };
        if self.vol.stat_inode(inode)?.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        if flags.trunc && flags.write {
            self.vol.with_file_mut(inode, |d| d.truncate(0))?;
        }
        Ok(self.alloc_fd(FdEntry::File {
            inode,
            offset: 0,
            flags,
        }))
    }

    /// Closes `fd`.
    pub fn close(&mut self, fd: u32) -> Result<(), FsError> {
        let slot = Arc::make_mut(&mut self.fds)
            .get_mut(fd as usize)
            .ok_or(FsError::BadFd)?;
        if slot.is_none() {
            return Err(FsError::BadFd);
        }
        *slot = None;
        Ok(())
    }

    /// Duplicates `fd` to the lowest free descriptor.
    pub fn dup(&mut self, fd: u32) -> Result<u32, FsError> {
        let entry = self.entry(fd)?.clone();
        Ok(self.alloc_fd(entry))
    }

    /// Reads from `fd` into `buf`; returns bytes read (0 = EOF).
    pub fn read(&mut self, fd: u32, buf: &mut [u8]) -> Result<usize, FsError> {
        let vol = self.vol.clone();
        match self.entry_mut(fd)? {
            FdEntry::File {
                inode,
                offset,
                flags,
            } => {
                if !flags.read {
                    return Err(FsError::Access);
                }
                let n = vol.with_file(*inode, |d| d.read_at(*offset, buf))?;
                *offset += n as u64;
                Ok(n)
            }
            FdEntry::Stdin => Ok(0),
            FdEntry::Stdout | FdEntry::Stderr => Err(FsError::Access),
        }
    }

    /// Writes `data` to `fd`; returns bytes written.
    pub fn write(&mut self, fd: u32, data: &[u8]) -> Result<usize, FsError> {
        match self.entry(fd)? {
            FdEntry::File {
                inode,
                offset,
                flags,
            } => {
                if !flags.write {
                    return Err(FsError::Access);
                }
                let (inode, flags) = (*inode, *flags);
                let pos = if flags.append {
                    self.vol.with_file(inode, FileData::len)?
                } else {
                    *offset
                };
                self.vol.with_file_mut(inode, |d| d.write_at(pos, data))?;
                if let FdEntry::File { offset, .. } = self.entry_mut(fd)? {
                    *offset = pos + data.len() as u64;
                }
                Ok(data.len())
            }
            FdEntry::Stdout => {
                self.stdout.push(data);
                Ok(data.len())
            }
            FdEntry::Stderr => {
                self.stderr.push(data);
                Ok(data.len())
            }
            FdEntry::Stdin => Err(FsError::Access),
        }
    }

    /// Repositions the offset of `fd`; returns the new offset.
    pub fn lseek(&mut self, fd: u32, off: i64, whence: u32) -> Result<u64, FsError> {
        let vol = self.vol.clone();
        match self.entry_mut(fd)? {
            FdEntry::File { inode, offset, .. } => {
                let base: i64 = match whence {
                    SEEK_SET => 0,
                    SEEK_CUR => *offset as i64,
                    SEEK_END => vol.with_file(*inode, FileData::len)? as i64,
                    _ => return Err(FsError::Inval),
                };
                let target = base.checked_add(off).ok_or(FsError::Inval)?;
                if target < 0 {
                    return Err(FsError::BadSeek);
                }
                *offset = target as u64;
                Ok(*offset)
            }
            _ => Err(FsError::BadSeek),
        }
    }

    /// Returns metadata for the object behind `fd`.
    pub fn fstat(&self, fd: u32) -> Result<Metadata, FsError> {
        match self.entry(fd)? {
            FdEntry::File { inode, .. } => self.vol.stat_inode(*inode),
            // Console streams report as zero-length files.
            _ => Ok(Metadata {
                inode: u32::MAX,
                kind: FileKind::File,
                len: 0,
            }),
        }
    }

    /// Truncates the file behind `fd` to `len`.
    pub fn ftruncate(&mut self, fd: u32, len: u64) -> Result<(), FsError> {
        match self.entry(fd)? {
            FdEntry::File { inode, flags, .. } => {
                if !flags.write {
                    return Err(FsError::Access);
                }
                let inode = *inode;
                self.vol.with_file_mut(inode, |d| d.truncate(len))
            }
            _ => Err(FsError::Inval),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_with(path: &str, content: &[u8]) -> FsView {
        let mut vol = Volume::new();
        vol.write_file(path, content).unwrap();
        FsView::new(vol)
    }

    #[test]
    fn open_read_sequential() {
        let mut v = view_with("/f", b"abcdef");
        let fd = v.open("/f", OpenFlags::read_only()).unwrap();
        assert_eq!(fd, 3, "first free fd after std streams");
        let mut buf = [0u8; 4];
        assert_eq!(v.read(fd, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"abcd");
        assert_eq!(v.read(fd, &mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"ef");
        assert_eq!(v.read(fd, &mut buf).unwrap(), 0, "EOF");
        v.close(fd).unwrap();
        assert!(v.read(fd, &mut buf).is_err());
    }

    #[test]
    fn write_modes() {
        let mut v = view_with("/f", b"12345");
        // Read-only fd refuses writes.
        let ro = v.open("/f", OpenFlags::read_only()).unwrap();
        assert_eq!(v.write(ro, b"x"), Err(FsError::Access));
        // O_TRUNC clears.
        let w = v.open("/f", OpenFlags::write_create()).unwrap();
        v.write(w, b"ab").unwrap();
        assert_eq!(v.volume().read_file("/f").unwrap(), b"ab");
        // Write-only fd refuses reads.
        let mut buf = [0u8; 1];
        assert_eq!(v.read(w, &mut buf), Err(FsError::Access));
        // O_APPEND always writes at the end.
        let a = v
            .open("/f", OpenFlags::from_bits(O_WRONLY | O_APPEND))
            .unwrap();
        v.lseek(a, 0, SEEK_SET).unwrap();
        v.write(a, b"cd").unwrap();
        assert_eq!(v.volume().read_file("/f").unwrap(), b"abcd");
    }

    #[test]
    fn o_creat_and_excl() {
        let mut v = FsView::default();
        let fd = v
            .open("/new", OpenFlags::from_bits(O_WRONLY | O_CREAT | O_EXCL))
            .unwrap();
        v.write(fd, b"x").unwrap();
        assert_eq!(
            v.open("/new", OpenFlags::from_bits(O_WRONLY | O_CREAT | O_EXCL)),
            Err(FsError::Exists)
        );
        assert!(v.open("/missing", OpenFlags::read_only()).is_err());
    }

    #[test]
    fn lseek_whences() {
        let mut v = view_with("/f", b"0123456789");
        let fd = v.open("/f", OpenFlags::read_only()).unwrap();
        assert_eq!(v.lseek(fd, 4, SEEK_SET).unwrap(), 4);
        assert_eq!(v.lseek(fd, 2, SEEK_CUR).unwrap(), 6);
        assert_eq!(v.lseek(fd, -1, SEEK_END).unwrap(), 9);
        let mut b = [0u8; 1];
        v.read(fd, &mut b).unwrap();
        assert_eq!(&b, b"9");
        assert_eq!(v.lseek(fd, -100, SEEK_SET), Err(FsError::BadSeek));
        assert_eq!(v.lseek(fd, 0, 99), Err(FsError::Inval));
        // Seeking a console stream is ESPIPE.
        assert_eq!(v.lseek(1, 0, SEEK_SET), Err(FsError::BadSeek));
    }

    #[test]
    fn console_capture() {
        let mut v = FsView::default();
        v.write(1, b"out").unwrap();
        v.write(2, b"err").unwrap();
        assert_eq!(v.stdout_bytes(), b"out");
        assert_eq!(v.stderr_bytes(), b"err");
        // Stdin reads EOF, writes fail.
        let mut b = [0u8; 4];
        assert_eq!(v.read(0, &mut b).unwrap(), 0);
        assert_eq!(v.write(0, b"x"), Err(FsError::Access));
    }

    #[test]
    fn snapshot_contains_side_effects() {
        let mut v = view_with("/f", b"base");
        let fd = v.open("/f", OpenFlags::from_bits(O_RDWR)).unwrap();
        v.write(1, b"before|").unwrap();
        let snap = v.clone();

        // The branch scribbles on the file, console, and fd offset...
        v.write(fd, b"MUTATED").unwrap();
        v.write(1, b"during|").unwrap();
        let g = v.open("/g", OpenFlags::write_create()).unwrap();
        v.write(g, b"new file").unwrap();

        // ...but the snapshot view is untouched.
        assert_eq!(snap.volume().read_file("/f").unwrap(), b"base");
        assert_eq!(snap.stdout_bytes(), b"before|");
        assert!(snap.volume().resolve("/g").is_err());

        // Restoring = cloning the snapshot again; fd offsets roll back too.
        let mut restored = snap.clone();
        let mut buf = [0u8; 4];
        assert_eq!(restored.read(fd, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"base");
    }

    #[test]
    fn dup_shares_entry_snapshot_style() {
        let mut v = view_with("/f", b"abc");
        let fd = v.open("/f", OpenFlags::read_only()).unwrap();
        let d = v.dup(fd).unwrap();
        assert_ne!(fd, d);
        // Offsets are per-entry (dup copies the entry in this model).
        let mut b = [0u8; 1];
        v.read(fd, &mut b).unwrap();
        v.read(d, &mut b).unwrap();
        assert_eq!(&b, b"a", "dup'd fd has its own offset in this model");
    }

    #[test]
    fn fstat_and_ftruncate() {
        let mut v = view_with("/f", b"hello");
        let fd = v.open("/f", OpenFlags::from_bits(O_RDWR)).unwrap();
        assert_eq!(v.fstat(fd).unwrap().len, 5);
        v.ftruncate(fd, 2).unwrap();
        assert_eq!(v.fstat(fd).unwrap().len, 2);
        let ro = v.open("/f", OpenFlags::read_only()).unwrap();
        assert_eq!(v.ftruncate(ro, 0), Err(FsError::Access));
        assert!(v.fstat(1).unwrap().len == 0);
    }

    #[test]
    fn fd_reuse_lowest_first() {
        let mut v = view_with("/f", b"x");
        let a = v.open("/f", OpenFlags::read_only()).unwrap();
        let b = v.open("/f", OpenFlags::read_only()).unwrap();
        v.close(a).unwrap();
        let c = v.open("/f", OpenFlags::read_only()).unwrap();
        assert_eq!(c, a, "lowest free fd is reused");
        assert_ne!(b, c);
        assert_eq!(v.open_fd_count(), 5);
    }

    #[test]
    fn opening_directory_for_write_fails() {
        let mut v = FsView::default();
        v.volume_mut().mkdir("/d").unwrap();
        assert_eq!(
            v.open("/d", OpenFlags::from_bits(O_WRONLY)),
            Err(FsError::IsDir)
        );
        assert_eq!(v.open("/d", OpenFlags::read_only()), Err(FsError::IsDir));
    }
}
